let put_u16 b off v =
  if v < 0 || v > 0xFFFF then Fatal.misuse "Codec.put_u16";
  Bytes.set_uint16_le b off v

let put_u32 b off v =
  if v < 0 || v > 0xFFFFFFFF then Fatal.misuse "Codec.put_u32";
  Bytes.set_int32_le b off (Int32.of_int (v land 0xFFFFFFFF))

let put_i64 b off v = Bytes.set_int64_le b off v

let get_u16 b off = Bytes.get_uint16_le b off

let get_u32 b off =
  Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let get_i64 b off = Bytes.get_int64_le b off

let varint_size v =
  if v < 0 then Fatal.misuse "Codec.varint_size: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

let rec put_varint b off v =
  if v < 0 then Fatal.misuse "Codec.put_varint: negative";
  if v < 0x80 then begin
    Bytes.unsafe_set b off (Char.unsafe_chr v);
    off + 1
  end
  else begin
    Bytes.unsafe_set b off (Char.unsafe_chr (0x80 lor (v land 0x7F)));
    put_varint b (off + 1) (v lsr 7)
  end

module Enc = struct
  type t = { mutable buf : bytes; mutable len : int }

  let create ?(capacity = 64) () = { buf = Bytes.create capacity; len = 0 }
  let length t = t.len

  let reserve t n =
    let needed = t.len + n in
    if needed > Bytes.length t.buf then begin
      let cap = ref (2 * Bytes.length t.buf) in
      while !cap < needed do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end

  let u8 t v =
    if v < 0 || v > 0xFF then Fatal.misuse "Codec.Enc.u8";
    reserve t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u16 t v =
    reserve t 2;
    put_u16 t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    reserve t 4;
    put_u32 t.buf t.len v;
    t.len <- t.len + 4

  let i64 t v =
    reserve t 8;
    put_i64 t.buf t.len v;
    t.len <- t.len + 8

  let int_as_i64 t v = i64 t (Int64.of_int v)

  let rec varint t v =
    if v < 0 then Fatal.misuse "Codec.Enc.varint: negative";
    if v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7F));
      varint t (v lsr 7)
    end

  let bytes t b =
    let n = Bytes.length b in
    reserve t n;
    Bytes.blit b 0 t.buf t.len n;
    t.len <- t.len + n

  let string t s =
    varint t (String.length s);
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let to_bytes t = Bytes.sub t.buf 0 t.len

  let finish t = if t.len = Bytes.length t.buf then t.buf else to_bytes t
end

module Dec = struct
  type t = { buf : bytes; mutable pos : int }

  let of_bytes ?(pos = 0) buf = { buf; pos }
  let pos t = t.pos
  let remaining t = Bytes.length t.buf - t.pos
  let at_end t = remaining t <= 0

  let need t n =
    if remaining t < n then Fatal.invariant ~mod_:"Codec" "Dec: truncated input"

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.unsafe_get t.buf t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = get_u16 t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = get_u32 t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    need t 8;
    let v = get_i64 t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let int_of_i64 t = Int64.to_int (i64 t)

  let varint t =
    let rec go shift acc =
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bytes t n =
    need t n;
    let v = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    v

  let string t =
    let n = varint t in
    need t n;
    let v = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    v
end
