(** Page checksums.

    Every log page and checkpoint image carries a CRC so that recovery can
    detect torn or corrupted pages (the paper's "consistency check during
    recovery" on the partition address is strengthened to a whole-page
    check).  The same CRC guards the well-known area and every shipped
    replication frame, so the kernel runs slicing-by-8 over native ints:
    cost per byte, not per call, is what a checkpoint restore or a ship
    cut pays. *)

val crc32 : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of
    [len] bytes at [pos].  [init] is a previous CRC to continue from:
    [crc32 ~init:(crc32 a) b] is the CRC of [a] followed by [b]. *)

val crc32_bytes : bytes -> int32
(** CRC-32 of an entire byte buffer. *)
