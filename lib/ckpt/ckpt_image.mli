(** Checkpoint image codec.

    A partition's checkpoint copy as stored on the checkpoint disk: the
    partition's byte snapshot together with its {e sequence watermark} (the
    per-partition log-record sequence current when the copy was taken,
    under the checkpoint's relation read lock).  Recovery applies only log
    records with seq > watermark, making replay idempotent across crashes
    that interleave with the checkpoint pipeline.

    Images are padded to whole disk pages ("partitions are written in whole
    tracks") and carry a CRC. *)

open Mrdb_storage

type t = {
  part : Addr.partition;
  watermark : int;
  snapshot : bytes; (** {!Partition.snapshot} image *)
}

val encode : page_bytes:int -> t -> bytes
(** Page-multiple image ready for a track write. *)

val encode_into :
  page_bytes:int -> part:Addr.partition -> watermark:int -> snapshot:bytes ->
  bytes -> int
(** {!encode} into a caller-owned buffer, returning the page-rounded image
    length.  [snapshot] is only read, so it may be the partition's live
    backing buffer — the zero-copy checkpoint path encodes straight out of
    it instead of materializing a {!Mrdb_storage.Partition.snapshot}.
    @raise Invalid_argument when the buffer is smaller than the image. *)

val pages_needed : page_bytes:int -> snapshot_bytes:int -> int

type view = { v_part : Addr.partition; v_watermark : int; pos : int; len : int }
(** A verified image in place: the snapshot is [len] bytes at [pos] of the
    buffer {!check} was given. *)

val check : bytes -> (view, string) result
(** Verify magic + CRC in place, without copying the snapshot out; tolerate
    trailing page padding.  The restore path builds its partition straight
    out of the track buffer from this ({!Mrdb_storage.Partition.of_snapshot}
    with [pos]/[len]). *)
