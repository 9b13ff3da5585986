(** The restoring half of the recovery component (§2.5, §2.6).

    Everything that brings partitions back into volatile memory after a
    crash: reading checkpoint images (with transparent archive fallback on
    media failure), replaying each partition's log-record stream above its
    image watermark, restoring whole segments, the restart-time catalog
    bootstrap from the well-known area, and the low-priority background
    sweep that restores whatever transactions have not yet touched. *)

open Mrdb_storage

type t

val create :
  env:Recovery_env.t ->
  slt:Mrdb_wal.Slt.t ->
  cat:Catalog.t ->
  seq:int Addr.Partition_table.t ->
  segments:(int, Segment.t) Hashtbl.t ->
  t
(** [seq] and [segments] are the volatile per-partition sequence counters
    and segment table shared with the transaction facade; restores update
    both. *)

val segment_of : t -> int -> Segment.t
(** The segment runtime for [seg_id], creating it (and reserving all
    catalogued partition numbers) on first touch. *)

val apply_records :
  partition:Partition.t ->
  ?rel:Relation.t Lazy.t ->
  watermark:int ->
  ?on_applied:(unit -> unit) ->
  Mrdb_wal.Log_page.chunk list ->
  int
(** The REDO kernel shared by every replay path: walk the framed records
    in stream order, decode each frame with [seq > watermark] exactly once
    and apply it to the partition; return the highest sequence seen (or
    [watermark] for an empty/filtered stream).  Physical records apply as
    slot operations; logical command records go through
    {!Mrdb_logical.Replay} — against the relation layer when [rel] is
    supplied (restart recovery; forced at the first command frame), else
    as schema-free partition-cell patches.  Reused by the warm-standby
    audit ({!Mrdb_replica}), which replays its own log pages onto rebuilt
    partitions exactly as restart replay does (no [rel]: a standby audits
    without catalog access).  [on_applied] fires once per record actually
    applied. *)

val partition_of_image :
  part:Addr.partition -> bytes -> (Partition.t * int, string) result
(** A partition and its sequence watermark from a checkpoint image held in
    a buffer: CRC checked in place ({!Mrdb_ckpt.Ckpt_image.check}), the
    image must belong to [part], and the partition is built with a single
    copy out of the buffer.  [Error] on any bad image, including a
    CRC-valid one whose snapshot header is corrupt.  The image half of the
    restore fetch, shared with the standby audit. *)

val ensure_partition : t -> Addr.partition -> unit
(** Restore the partition if it is not memory-resident: checkpoint image
    (one bounded retry, then the newest archived copy on media failure)
    and log chain are fetched in parallel (different disks), records with
    [seq > watermark] replayed in original order.
    @raise Mrdb_util.Fatal.Invariant when the partition is not catalogued
    or its durable state is unreadable and unarchived. *)

val ensure_segment : t -> int -> unit
(** Restore every catalogued partition of a segment. *)

val resident_fraction : t -> float
(** Fraction of catalogued partitions currently memory-resident. *)

val background_step : t -> bool
(** Restore one more not-yet-resident partition (the paper's low-priority
    background sweep); [false] when the database is fully resident. *)

val sweep : t -> unit
(** Drain the background sweep. *)

val restore_catalog :
  Recovery_env.t ->
  slt:Mrdb_wal.Slt.t ->
  entries:Wellknown.entry list ->
  Segment.t * (Addr.partition * int) list
(** Restart-time bootstrap: restore each catalog partition named by the
    well-known area into a fresh catalog segment, through the same fetch
    as {!ensure_partition}.  Returns the segment and
    each partition's recovered sequence watermark. *)

val drop_uncatalogued_bins : slt:Mrdb_wal.Slt.t -> cat:Catalog.t -> unit
(** Orphan bins: a crash between a [drop_relation]'s catalog commit and
    its resource reclamation leaves bins whose partitions no longer exist;
    finish the reclamation. *)
