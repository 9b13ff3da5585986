open Mrdb_storage

let magic = 0x4C505047 (* "LPPG" *)

type header = {
  lsn : int64;
  part : Addr.partition;
  prev_lsn : int64;
  dir : int64 array;
  nrecords : int;
  used : int;
}

type chunk = { buf : bytes; pos : int; len : int }

(* Fixed header: u32 magic | i64 lsn | i64 seg | i64 pno | i64 prev |
   u32 nrecords | u32 used | u32 dir_len = 48 bytes, then dir_size × i64. *)
let fixed_header = 48

let payload_off ~dir_size = fixed_header + (8 * dir_size)

let payload_capacity ~page_bytes ~dir_size =
  page_bytes - payload_off ~dir_size - 4 (* trailing crc *)

let prepare_into ~dir_size ~lsn ~(part : Addr.partition) ~prev_lsn ~dir ~used ~nrecords page =
  let page_bytes = Bytes.length page in
  if Array.length dir > dir_size then Mrdb_util.Fatal.misuse "Log_page.prepare_into: directory too long";
  if used > payload_capacity ~page_bytes ~dir_size then
    Mrdb_util.Fatal.misuse "Log_page.prepare_into: payload too large";
  Bytes.fill page 0 page_bytes '\000';
  Mrdb_util.Codec.put_u32 page 0 magic;
  Mrdb_util.Codec.put_i64 page 4 lsn;
  Mrdb_util.Codec.put_i64 page 12 (Int64.of_int part.Addr.segment);
  Mrdb_util.Codec.put_i64 page 20 (Int64.of_int part.Addr.partition);
  Mrdb_util.Codec.put_i64 page 28 prev_lsn;
  Mrdb_util.Codec.put_u32 page 36 nrecords;
  Mrdb_util.Codec.put_u32 page 40 used;
  Mrdb_util.Codec.put_u32 page 44 (Array.length dir);
  Array.iteri (fun i l -> Mrdb_util.Codec.put_i64 page (fixed_header + (8 * i)) l) dir

let finish page =
  let page_bytes = Bytes.length page in
  let crc = Mrdb_util.Checksum.crc32 page ~pos:0 ~len:(page_bytes - 4) in
  Bytes.set_int32_le page (page_bytes - 4) crc

(* The one u16 frame loop of the WAL: SLB drains and materialization,
   page parse and the restore apply all walk frames through here. *)
let iter_frames b ~pos ~used ~f =
  let stop = pos + used in
  let p = ref pos in
  while !p < stop do
    (* A lone trailing byte cannot hold a u16 header: it overruns too. *)
    let len = if !p + 2 <= stop then Mrdb_util.Codec.get_u16 b !p else stop in
    if !p + 2 + len > stop then
      Mrdb_util.Fatal.invariantf ~mod_:"Log_page"
        "frame at offset %d overruns the %d framed bytes" (!p - pos) used;
    f b ~pos:(!p + 2) ~len;
    p := !p + 2 + len
  done

(* Cheap integrity check (size + magic + CRC) for checksum-verified duplex
   reads: decides copy-acceptability without decoding records, so the
   mirror-fallback logic stays below the parse layer. *)
let verify ~page_bytes b =
  Bytes.length b = page_bytes
  && Mrdb_util.Codec.get_u32 b 0 = magic
  && Bytes.get_int32_le b (page_bytes - 4)
     = Mrdb_util.Checksum.crc32 b ~pos:0 ~len:(page_bytes - 4)

let parse ~page_bytes ~dir_size b =
  if Bytes.length b <> page_bytes then Error "wrong page size"
  else if Mrdb_util.Codec.get_u32 b 0 <> magic then Error "bad magic"
  else begin
    let stored_crc = Bytes.get_int32_le b (page_bytes - 4) in
    let crc = Mrdb_util.Checksum.crc32 b ~pos:0 ~len:(page_bytes - 4) in
    if stored_crc <> crc then Error "crc mismatch (torn or stale page)"
    else begin
      let lsn = Mrdb_util.Codec.get_i64 b 4 in
      let part =
        {
          Addr.segment = Int64.to_int (Mrdb_util.Codec.get_i64 b 12);
          partition = Int64.to_int (Mrdb_util.Codec.get_i64 b 20);
        }
      in
      let prev_lsn = Mrdb_util.Codec.get_i64 b 28 in
      let nrecords = Mrdb_util.Codec.get_u32 b 36 in
      let used = Mrdb_util.Codec.get_u32 b 40 in
      let dir_len = Mrdb_util.Codec.get_u32 b 44 in
      if dir_len > dir_size then Error "directory overflow"
      else if used > payload_capacity ~page_bytes ~dir_size then Error "payload overflow"
      else begin
        let dir =
          Array.init dir_len (fun i -> Mrdb_util.Codec.get_i64 b (fixed_header + (8 * i)))
        in
        (* Check the frames tile [used] in place; the chunk points into
           the image, so recovery never copies the payload out. *)
        let pos = payload_off ~dir_size in
        match iter_frames b ~pos ~used ~f:(fun _ ~pos:_ ~len:_ -> ()) with
        | () -> Ok ({ lsn; part; prev_lsn; dir; nrecords; used }, { buf = b; pos; len = used })
        | exception Mrdb_util.Fatal.Invariant { mod_; what } ->
            Error (Printf.sprintf "frame walk: %s: %s" mod_ what)
      end
    end
  end
