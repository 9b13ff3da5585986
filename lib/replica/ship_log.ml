module Codec = Mrdb_util.Codec
module Checksum = Mrdb_util.Checksum

type part_check = {
  part : Mrdb_storage.Addr.partition;
  ckpt_page : int;
  ckpt_pages : int;
  crc : int32;
}

type batch = {
  epoch : int;
  cut : int;
  full : bool;
  log_pages : (int64 * bytes) list;
  ckpt_pages : (int * bytes) list;
  checks : part_check list;
  stable : bytes;
}

type ack_status = Applied | Diverged

type frame = Batch of batch | Ack of { epoch : int; cut : int; status : ack_status }

(* Envelope: magic u32, kind u8, payload crc u32, payload length varint,
   payload.  The CRC covers the payload only — header corruption already
   fails the magic/kind/length checks. *)
let magic = 0x4D534850 (* "MSHP" *)

let kind_batch = 1
let kind_ack = 2

let encode_batch e (b : batch) =
  Codec.Enc.u32 e b.epoch;
  Codec.Enc.u32 e b.cut;
  Codec.Enc.u8 e (if b.full then 1 else 0);
  Codec.Enc.varint e (List.length b.log_pages);
  List.iter
    (fun (lsn, image) ->
      Codec.Enc.i64 e lsn;
      Codec.Enc.varint e (Bytes.length image);
      Codec.Enc.bytes e image)
    b.log_pages;
  Codec.Enc.varint e (List.length b.ckpt_pages);
  List.iter
    (fun (page, image) ->
      Codec.Enc.varint e page;
      Codec.Enc.varint e (Bytes.length image);
      Codec.Enc.bytes e image)
    b.ckpt_pages;
  Codec.Enc.varint e (List.length b.checks);
  List.iter
    (fun c ->
      Mrdb_storage.Addr.encode_partition e c.part;
      Codec.Enc.varint e (c.ckpt_page + 1) (* -1 = never checkpointed *);
      Codec.Enc.varint e c.ckpt_pages;
      Codec.Enc.u32 e (Int32.to_int c.crc land 0xFFFFFFFF))
    b.checks;
  Codec.Enc.varint e (Bytes.length b.stable);
  Codec.Enc.bytes e b.stable

let decode_batch d =
  let epoch = Codec.Dec.u32 d in
  let cut = Codec.Dec.u32 d in
  let full = Codec.Dec.u8 d = 1 in
  let list n f = List.init n (fun _ -> f ()) in
  let log_pages =
    list (Codec.Dec.varint d) (fun () ->
        let lsn = Codec.Dec.i64 d in
        let len = Codec.Dec.varint d in
        (lsn, Codec.Dec.bytes d len))
  in
  let ckpt_pages =
    list (Codec.Dec.varint d) (fun () ->
        let page = Codec.Dec.varint d in
        let len = Codec.Dec.varint d in
        (page, Codec.Dec.bytes d len))
  in
  let checks =
    list (Codec.Dec.varint d) (fun () ->
        let part = Mrdb_storage.Addr.decode_partition d in
        let ckpt_page = Codec.Dec.varint d - 1 in
        let ckpt_pages = Codec.Dec.varint d in
        let crc = Int32.of_int (Codec.Dec.u32 d) in
        { part; ckpt_page; ckpt_pages; crc })
  in
  let stable = Codec.Dec.bytes d (Codec.Dec.varint d) in
  { epoch; cut; full; log_pages; ckpt_pages; checks; stable }

(* The exact length [encode_batch] writes, so the frame is built in one
   buffer of its final size. *)
let batch_length (b : batch) =
  let vs = Codec.varint_size in
  let pages key_len l =
    List.fold_left
      (fun acc (key, image) ->
        let n = Bytes.length image in
        acc + key_len key + vs n + n)
      (vs (List.length l)) l
  in
  let check acc c =
    (* The partition address is two i64s ({!Mrdb_storage.Addr.encode_partition}). *)
    acc + 16 + vs (c.ckpt_page + 1) + vs c.ckpt_pages + 4
  in
  4 + 4 + 1
  + pages (fun _ -> 8) b.log_pages
  + pages vs b.ckpt_pages
  + List.fold_left check (vs (List.length b.checks)) b.checks
  + vs (Bytes.length b.stable)
  + Bytes.length b.stable

let ack_length = 4 + 4 + 1

let encode frame =
  let kind, body_len =
    match frame with
    | Batch b -> (kind_batch, batch_length b)
    | Ack _ -> (kind_ack, ack_length)
  in
  let body_pos = 4 + 1 + 4 + Codec.varint_size body_len in
  let e = Codec.Enc.create ~capacity:(body_pos + body_len) () in
  Codec.Enc.u32 e magic;
  Codec.Enc.u8 e kind;
  Codec.Enc.u32 e 0 (* payload CRC, filled in once the body is written *);
  Codec.Enc.varint e body_len;
  (match frame with
  | Batch b -> encode_batch e b
  | Ack { epoch; cut; status } ->
      Codec.Enc.u32 e epoch;
      Codec.Enc.u32 e cut;
      Codec.Enc.u8 e (match status with Applied -> 0 | Diverged -> 1));
  if Codec.Enc.length e <> body_pos + body_len then
    Mrdb_util.Fatal.invariantf ~mod_:"Ship_log" "encode: body is %d bytes, sized %d"
      (Codec.Enc.length e - body_pos) body_len;
  let frame = Codec.Enc.finish e in
  Codec.put_u32 frame 5
    (Int32.to_int (Checksum.crc32 frame ~pos:body_pos ~len:body_len) land 0xFFFFFFFF);
  frame

(* The CRC is checked over the body's range of the frame and the body is
   decoded in place from that offset; only the page and stable images the
   batch owns are copied out. *)
let decode frame =
  try
    let d = Codec.Dec.of_bytes frame in
    if Codec.Dec.u32 d <> magic then Error "ship_log: bad magic"
    else
      let kind = Codec.Dec.u8 d in
      let crc = Codec.Dec.u32 d in
      let len = Codec.Dec.varint d in
      let body_pos = Codec.Dec.pos d in
      if len > Codec.Dec.remaining d then Error "ship_log: truncated frame"
      else if
        Int32.to_int (Checksum.crc32 frame ~pos:body_pos ~len) land 0xFFFFFFFF <> crc
      then Error "ship_log: payload CRC mismatch"
      else if kind = kind_batch then Ok (Batch (decode_batch d))
      else if kind = kind_ack then
        let epoch = Codec.Dec.u32 d in
        let cut = Codec.Dec.u32 d in
        let status = match Codec.Dec.u8 d with 0 -> Applied | _ -> Diverged in
        Ok (Ack { epoch; cut; status })
      else Error (Printf.sprintf "ship_log: unknown frame kind %d" kind)
  with
  | Invalid_argument _ | Failure _ -> Error "ship_log: truncated frame"
  | Mrdb_util.Fatal.Invariant _ ->
      (* Codec underrun: a frame cut short on the wire, not a bug here. *)
      Error "ship_log: truncated frame"
