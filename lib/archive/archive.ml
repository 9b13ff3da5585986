open Mrdb_storage

module Tape = struct
  type record =
    | Log_page of { lsn : int64; image : bytes }
    | Ckpt_image of { part : Addr.partition; watermark : int; image : bytes }

  type t = {
    mutable records : record list; (* newest first *)
    mutable count : int;
    mutable bytes : int;
  }

  let create () = { records = []; count = 0; bytes = 0 }

  let record_bytes = function
    | Log_page { image; _ } -> Bytes.length image
    | Ckpt_image { image; _ } -> Bytes.length image

  let append t r =
    t.records <- r :: t.records;
    t.count <- t.count + 1;
    t.bytes <- t.bytes + record_bytes r

  let length t = t.count
  let bytes_written t = t.bytes
  let iter f t = List.iter f (List.rev t.records)
end

type t = { tape : Tape.t }

let create () = { tape = Tape.create () }
let tape t = t.tape

let on_log_page t ~lsn image =
  Tape.append t.tape (Tape.Log_page { lsn; image = Bytes.copy image })

let on_ckpt_image t (img : Mrdb_ckpt.Ckpt_image.t) ~page_bytes =
  Tape.append t.tape
    (Tape.Ckpt_image
       {
         part = img.Mrdb_ckpt.Ckpt_image.part;
         watermark = img.Mrdb_ckpt.Ckpt_image.watermark;
         image = Mrdb_ckpt.Ckpt_image.encode ~page_bytes img;
       })

let latest_image t part =
  (* Newest-first scan; the first hit is the latest. *)
  let rec find = function
    | [] -> None
    | Tape.Ckpt_image { part = p; image; _ } :: _ when Addr.equal_partition p part ->
        Some image
    | _ :: rest -> find rest
  in
  find t.tape.Tape.records

let log_pages_after t ~lsn =
  let acc = ref [] in
  Tape.iter
    (fun r ->
      match r with
      | Tape.Log_page { lsn = l; image } when l > lsn -> acc := (l, image) :: !acc
      | Tape.Log_page _ | Tape.Ckpt_image _ -> ())
    t.tape;
  List.rev !acc

let stats t =
  Printf.sprintf "archive tape: %d records, %d bytes" (Tape.length t.tape)
    (Tape.bytes_written t.tape)
