(** Partition bins of the Stable Log Tail.

    "The recovery manager reads log records ... and places them into bins
    (called partition bins) in the Stable Log Tail according to the address
    of the partition to which they refer."  Each bin's info block holds the
    paper's four monitors — partition address, update count, LSN of first
    log page, log page directory — plus the current page buffer and the
    in-flight pages whose disk writes have not yet completed.  Everything
    lives in stable memory, so after a crash the bins are recovered intact
    and their buffered records are {e not} lost.

    Page buffers are borrowed from the layout's page pool.  Filling a
    buffer composes a complete page image in place and marks it in-flight;
    the block returns to the pool only when the duplexed disk write is
    durable.  If a crash intervenes, recovery reads the page image straight
    from the stable block. *)

open Mrdb_storage

type t

(** {2 Lifecycle} *)

val activate : Stable_layout.t -> idx:int -> Addr.partition -> t
(** Claim bin slot [idx] for a partition (fresh, empty, persisted). *)

val load : Stable_layout.t -> idx:int -> t option
(** Decode slot [idx] from stable memory; [None] when unused. *)

val clear_slot : Stable_layout.t -> idx:int -> unit
(** Mark slot unused (partition de-allocation). *)

val owned_blocks : Stable_layout.t -> idx:int -> int list
(** Page-pool blocks slot [idx] still owns — its live and shadow buffers
    and its in-flight pages — read from the stable slot fields: the
    crash-time input to the page-pool allocator rebuild. *)

val idx : t -> int
val partition : t -> Addr.partition

(** {2 Monitors (§2.3.3)} *)

val update_count : t -> int
val first_lsn : t -> int64
(** -1 when the bin has no log pages on disk. *)

val pages_written : t -> int
val buffered_records : t -> int
val directory : t -> int64 array
(** Current (incomplete) span of the live generation, oldest first. *)

val last_seq : t -> int
(** Highest record sequence number ever accepted into this bin — lets the
    checkpoint-finish protocol detect records that slipped in between the
    checkpoint's memory copy (watermark) and the bin reset. *)

val has_outstanding : t -> bool
(** Log information exists (buffered, in-flight, on disk, or parked in the
    shadow generation) — the paper's "active partition". *)

(** {2 Checkpoint cut protocol}

    A checkpoint's memory copy and {!begin_cut} happen atomically (same
    event, no simulated time in between): the bin's entire pre-copy state —
    chain and buffer — moves to the {e shadow} generation, and new records
    build a fresh live generation.  When the checkpoint transaction
    commits, {!discard_shadow} releases the pre-copy records; if the system
    crashes first, recovery replays shadow before live, so nothing is lost
    in either outcome. *)

val begin_cut : t -> [ `Cut | `Nothing_to_cut | `Shadow_busy ]
(** Park the live generation as the shadow.  [`Shadow_busy] means a
    previous cut was never discarded (checkpoint interrupted by a crash);
    the caller should checkpoint without a cut and rely on the watermark
    filter. *)

val discard_shadow : t -> unit

val has_shadow : t -> bool
val oldest_lsn : t -> int64
(** Oldest log page across both generations (-1 when none) — what the log
    window's age trigger must track. *)

val buffer : t -> shadow:bool -> Log_page.chunk option
(** The staged frames of one generation's buffer, copied out of stable
    memory; [None] when that generation has nothing buffered. *)

val live_chain_spec : t -> int64 * int64 list
(** (first LSN, current span) of the live generation — the inputs of the
    recovery span walk. *)

val shadow_chain_spec : t -> (int64 * int64 list) option

(** {2 Normal operation} *)

exception Pool_exhausted
(** Page pool or in-flight slots exhausted; the caller must let disk writes
    complete (backpressure on the logging pipeline). *)

val append : t -> bytes -> pos:int -> len:int -> [ `Buffered | `Page_full ]
(** Forward one encoded record into the page buffer (allocating one from
    the pool on first use): the [len]-byte record sits at [pos] in a
    caller-owned buffer with its u16 frame header at [pos - 2] — exactly
    what {!Slb.drain} hands out, since SLB chains and bin buffers use
    identical framing.  The whole frame lands with one stable-memory
    write; the record is never decoded (the sequence watermark comes from
    {!Log_record.peek_seq}).  [`Page_full] means the frame did NOT fit —
    the caller must {!seal_page} and retry.
    @raise Pool_exhausted when the page pool is empty. *)

val seal_page : t -> log_disk:Log_disk.t -> (int64 * bytes) option
(** Compose the buffered records into a page image in the buffer block,
    allocate its LSN, link it into the chain and the directory, mark the
    block in-flight, and detach the buffer.  Returns the (LSN, image) the
    caller must write via {!Log_disk.write_page}, then acknowledge with
    {!flush_complete}.  [None] when the buffer is empty.
    @raise Pool_exhausted when all in-flight slots are busy. *)

val can_seal : t -> bool
(** An in-flight slot is available. *)

val flush_complete : t -> lsn:int64 -> unit
(** The disk write for [lsn] is durable: release its block to the pool. *)

val inflight_lsns : t -> int64 list

val read_inflight : t -> lsn:int64 -> bytes option
(** Stable copy of an in-flight page image (recovery overlay for pages the
    disk never received). *)

val reset_after_checkpoint : t -> unit
(** "Once a partition has been checkpointed, its corresponding log
    information is no longer needed for memory recovery": zero the update
    count, forget both generations' chains and directories, release the
    buffers.  In-flight writes are left to complete on their own. *)
