(** Archive logging (§2.6).

    "The disk copy of the database is basically the archive copy for the
    primary memory copy, but the disk copy also requires an archive copy
    (probably on tape or optical disk) in case of disk media failure."
    The paper defers the details to the classical literature; this module
    implements the obvious realization: a sequential tape that receives a
    copy of {e every} log page the recovery CPU writes and {e every}
    checkpoint image a checkpoint transaction writes.

    Media recovery of a lost {e checkpoint disk} then reduces to: for each
    partition, take the newest archived image (the same image the catalog
    references — the archive saw every one) and let normal recovery replay
    the surviving log on top.  A lost {e log disk} mirror is already
    handled by the duplexed pair. *)

open Mrdb_storage

(** Append-only tape. *)
module Tape : sig
  type record =
    | Log_page of { lsn : int64; image : bytes }
    | Ckpt_image of { part : Addr.partition; watermark : int; image : bytes }

  type t

  val create : unit -> t
  val append : t -> record -> unit
  val length : t -> int
  val bytes_written : t -> int
  val iter : (record -> unit) -> t -> unit
  (** Oldest first (a sequential scan, as on real tape). *)
end

type t

val create : unit -> t
val tape : t -> Tape.t

val on_log_page : t -> lsn:int64 -> bytes -> unit
(** Tap for {!Mrdb_wal.Log_disk.set_tap}. *)

val on_ckpt_image : t -> Mrdb_ckpt.Ckpt_image.t -> page_bytes:int -> unit
(** Called by the checkpoint transaction after the image is durable. *)

val latest_image : t -> Addr.partition -> bytes option
(** Newest archived checkpoint image of a partition, encoded exactly as it
    went to the checkpoint disk (scans the tape) — the restore fetch
    validates it like a track read. *)

val log_pages_after : t -> lsn:int64 -> (int64 * bytes) list
(** Archived log pages with LSN > the given one, oldest first — the tail
    a media-recovery replay needs when the log window has already reused
    those slots. *)

val stats : t -> string
