(* Frame-level test helpers shared by the WAL and fault suites.

   The WAL moves encoded frames ([u16 len | record]) from the SLB drain to
   the restore apply without decoding them, so the tests speak frames
   too: records are framed here exactly as [Slb.Region.append] frames
   them, whatever the WAL hands back is copied out frame by frame, and
   expectations are compared byte for byte. *)

open Mrdb_wal

let frame record =
  let size = Log_record.encoded_size record in
  let b = Bytes.create (2 + size) in
  Mrdb_util.Codec.put_u16 b 0 size;
  ignore (Log_record.encode_into record b ~pos:2 : int);
  b

let payload records = Bytes.concat Bytes.empty (List.map frame records)

(* Sort one record into its bin the way the drain does: as a frame. *)
let accept slt record =
  let f = frame record in
  Slt.accept slt f ~pos:2 ~len:(Bytes.length f - 2)

let bin_append bin record =
  let f = frame record in
  Partition_bin.append bin f ~pos:2 ~len:(Bytes.length f - 2)

(* A sealed page image holding [records], composed as the seal path does
   ([prepare_into], payload blit, [finish]). *)
let page ~page_bytes ~dir_size ~lsn ~part ~prev_lsn ~dir records =
  let p = payload records in
  let image = Bytes.create page_bytes in
  Log_page.prepare_into ~dir_size ~lsn ~part ~prev_lsn ~dir ~used:(Bytes.length p)
    ~nrecords:(List.length records) image;
  Bytes.blit p 0 image (Log_page.payload_off ~dir_size) (Bytes.length p);
  Log_page.finish image;
  image

(* The whole frame (header included) of a record handed out in place. *)
let copy buf ~pos ~len = Bytes.sub buf (pos - 2) (len + 2)

let of_chunks chunks =
  let out = ref [] in
  List.iter
    (fun (c : Log_page.chunk) ->
      Log_page.iter_frames c.buf ~pos:c.pos ~used:c.len ~f:(fun buf ~pos ~len ->
          out := copy buf ~pos ~len :: !out))
    chunks;
  List.rev !out

let seqs frames = List.map (fun f -> Log_record.peek_seq f ~pos:2) frames

let check msg expected frames =
  Alcotest.(check (list string))
    msg
    (List.map (fun r -> Bytes.to_string (frame r)) expected)
    (List.map Bytes.to_string frames)

(* Run [Slt.records_for_recovery] to completion and return the chain's
   frames; any read error fails the test. *)
let recovered ~sim slt part =
  let result = ref None in
  Slt.records_for_recovery slt part (fun r -> result := Some r);
  Mrdb_sim.Sim.run sim;
  match !result with
  | Some (Ok chunks) -> of_chunks chunks
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"
