open Mrdb_storage

exception Out_of_undo_space

(* A block's buffer is created at its first allocation and kept after
   that: a fresh space (one per restart) costs a few words per block, not
   [block_bytes]. *)
type block = { mutable buf : bytes; mutable used : int }

type t = {
  block_bytes : int;
  free : int array; (* free block indices, a stack: [free.(0 .. nfree-1)] *)
  mutable nfree : int;
  blocks : block array;
  epoch : Mrdb_hw.Volatile.Epoch.t;
  born : int;
}

type chain = {
  mutable blocks_held : int list; (* newest first *)
  mutable records : int;
  mutable bytes : int;
}

let create ?(block_bytes = 2048) ?(block_count = 1024) epoch =
  if block_bytes < 64 || block_count < 1 then Mrdb_util.Fatal.misuse "Undo_space.create";
  {
    block_bytes;
    (* Popped from the top: block 0 first, and a released block is the
       next one reused, so a steady load keeps touching the same few. *)
    free = Array.init block_count (fun i -> block_count - 1 - i);
    nfree = block_count;
    blocks = Array.init block_count (fun _ -> { buf = Bytes.empty; used = 0 });
    epoch;
    born = Mrdb_hw.Volatile.Epoch.current epoch;
  }

let check_live t =
  if Mrdb_hw.Volatile.Epoch.current t.epoch <> t.born then
    raise (Mrdb_hw.Volatile.Lost "undo-space: volatile data lost in crash")

let block_bytes t = t.block_bytes
let blocks_free t = t.nfree
let blocks_in_use t = Array.length t.blocks - blocks_free t

let alloc_block t =
  if t.nfree = 0 then raise Out_of_undo_space;
  t.nfree <- t.nfree - 1;
  let i = t.free.(t.nfree) in
  let block = t.blocks.(i) in
  if Bytes.length block.buf = 0 then block.buf <- Bytes.create t.block_bytes;
  block.used <- 0;
  i

let open_chain t =
  check_live t;
  let b = alloc_block t in
  { blocks_held = [ b ]; records = 0; bytes = 0 }

(* Record framing inside a block: u16 length | payload.  A record that does
   not fit the current block's remainder goes to a fresh block (records do
   not span blocks; a zero-length sentinel is implied by `used`).  The
   payload — partition address (two i64) followed by the encoded operation —
   is serialized straight into the block: the undo path allocates nothing
   per record. *)
let push t chain (part : Addr.partition) op =
  check_live t;
  let payload_len = 16 + Part_op.encoded_size op in
  let frame_len = 2 + payload_len in
  if frame_len > t.block_bytes then Mrdb_util.Fatal.misuse "Undo_space.push: record exceeds block size";
  let head =
    match chain.blocks_held with
    | head :: _ -> head
    | [] -> Mrdb_util.Fatal.invariant ~mod_:"Undo_space" "push: chain holds no blocks"
  in
  let block =
    if t.blocks.(head).used + frame_len <= t.block_bytes then t.blocks.(head)
    else begin
      let b = alloc_block t in
      chain.blocks_held <- b :: chain.blocks_held;
      t.blocks.(b)
    end
  in
  Mrdb_util.Codec.put_u16 block.buf block.used payload_len;
  let pos = block.used + 2 in
  Mrdb_util.Codec.put_i64 block.buf pos (Int64.of_int part.Addr.segment);
  Mrdb_util.Codec.put_i64 block.buf (pos + 8) (Int64.of_int part.Addr.partition);
  ignore (Part_op.encode_into op block.buf ~pos:(pos + 16) : int);
  block.used <- block.used + frame_len;
  chain.records <- chain.records + 1;
  chain.bytes <- chain.bytes + frame_len

let record_count chain = chain.records
let byte_size chain = chain.bytes

let decode_block t idx =
  let block = t.blocks.(idx) in
  let acc = ref [] in
  let pos = ref 0 in
  while !pos + 2 <= block.used do
    let len = Mrdb_util.Codec.get_u16 block.buf !pos in
    let dec = Mrdb_util.Codec.Dec.of_bytes ~pos:(!pos + 2) block.buf in
    let part = Addr.decode_partition dec in
    let op = Part_op.decode dec in
    acc := (part, op) :: !acc;
    pos := !pos + 2 + len
  done;
  !acc (* newest-first within the block *)

let release t chain =
  List.iter
    (fun i ->
      t.free.(t.nfree) <- i;
      t.nfree <- t.nfree + 1)
    chain.blocks_held;
  chain.blocks_held <- [];
  chain.records <- 0;
  chain.bytes <- 0

let pop_all t chain =
  check_live t;
  (* blocks_held is newest-first; each block decodes newest-first. *)
  let records = List.concat_map (decode_block t) chain.blocks_held in
  release t chain;
  records

let discard t chain =
  check_live t;
  release t chain
