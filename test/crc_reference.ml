(* The byte-at-a-time CRC-32 over boxed [Int32] that [Checksum.crc32]
   replaced: one table lookup per byte, nothing clever.  Kept only as the
   oracle the slicing-by-8 kernel is checked against. *)

let table =
  let table = Array.make 256 0l in
  for n = 0 to 255 do
    let c = ref (Int32.of_int n) in
    for _ = 0 to 7 do
      if Int32.logand !c 1l <> 0l then
        c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
      else c := Int32.shift_right_logical !c 1
    done;
    table.(n) <- !c
  done;
  table

let crc32 ?(init = 0l) b ~pos ~len =
  let c = ref (Int32.logxor init 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i))))
           0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
