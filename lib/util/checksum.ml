(* Slicing-by-8 CRC-32 over native ints.  [tables] holds eight 256-entry
   tables back to back: table 0 is the classic byte-at-a-time table, and
   entry [n] of table [k] is the CRC contribution of byte [n] followed by
   [k] zero bytes.  One step folds 8 bytes (two 32-bit little-endian
   loads) with eight lookups; a byte-wise loop over table 0 takes the
   tail.  The output is bit-identical to the byte-at-a-time kernel. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let u32_le b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let crc32 ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    Fatal.misuse "Checksum.crc32";
  let t = tables in
  let c = ref ((Int32.to_int init land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = u32_le b !i lxor !c and hi = u32_le b (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32_bytes b = crc32 b ~pos:0 ~len:(Bytes.length b)
