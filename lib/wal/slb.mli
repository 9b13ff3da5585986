(** Stable Log Buffer: per-transaction REDO chains in stable memory.

    "Both the volatile UNDO space and the Stable Log Buffer are managed as
    a set of fixed-size blocks ... allocated to transactions on a demand
    basis ... critical sections are used only for block allocation — they
    are not a part of the log writing process itself.  Because of these
    separate lists, transactions do not have to synchronize with each other
    to write to the log", which removes the classical log-tail hot spot.

    The buffer is striped into [slb_regions] independent {e regions}, one
    per executor: each region has its own block allocator, its own
    uncommitted-chain table, its own committed ring stripe and its own
    scratch buffers, so executors never contend on append or commit.
    Commit stamps a global commit sequence number into the ring entry; the
    drain side merges the striped rings back into one stream ordered by
    that sequence, so {!Log_sorter} and everything behind it see exactly
    the commit-ordered stream of the single-region design.

    Chains live on one of two lists.  Commit moves a chain from the
    uncommitted to the {e committed} list — a stable ring written in commit
    order; appending that ring entry {e is} the commit point ("transactions
    can commit instantly — they do not need to wait until the REDO log
    records are flushed to disk").  The recovery CPU later {!drain}s
    committed chains into the Stable Log Tail and frees their blocks,
    handing out the encoded frames themselves — nothing on this side ever
    decodes a record.

    After a crash, {!recover} rebuilds each region's block allocator from
    its committed ring stripe (uncommitted chains are garbage by
    definition) so the undrained records can still be sorted into bins. *)

type t

exception Slb_full
(** Raised when block or ring capacity is exhausted; the caller is expected
    to stall the writer until the recovery CPU drains. *)

val create : Stable_layout.t -> t
(** Fresh SLB over a fresh layout (zeroes volatile chain state only); one
    region per [slb_regions] in the layout's configuration. *)

val recover : Stable_layout.t -> t
(** Re-attach after a crash: scan each region's committed ring stripe,
    mark reachable blocks live, discard uncommitted chains. *)

val set_recorder : t -> Mrdb_obs.Flight_recorder.t option -> unit
(** Attach a flight recorder: every append then records an [Slb_append]
    event carrying the owning region id (five array stores —
    bench/hotpath.ml's [append_obs] bounds the cost).  [None] detaches;
    the recorder is shared by all regions. *)

val regions : t -> int

(** Per-region operations — the striped API.  An executor must only touch
    its own region (lint rule R7 confines the append call sites). *)
module Region : sig
  type t

  val append : t -> txn_id:int -> Log_record.t -> unit
  (** Add a REDO record to the transaction's (uncommitted) chain in this
      region.  The frame (u16 length + record) is composed in a reusable
      per-region scratch buffer and lands in stable memory as exactly one
      write — the steady-state append path allocates nothing.
      @raise Slb_full when the region has no free block. *)

  val stage_append : t -> txn_id:int -> Log_record.t -> unit
  (** Group-commit append: the framed record accumulates in a {e volatile}
      per-transaction staging buffer (pooled, no steady-state allocation)
      instead of stable memory — the transaction is not durable until the
      group flush materializes its chain.  A crash before the flush loses
      the staged records, exactly the FASTPATH precommit window. *)

  val materialize : t -> txn_id:int -> unit
  (** Convert a staged transaction's records into chained block images in
      the region's batch buffer, allocating its stable-memory blocks, and
      register the chain as uncommitted.  Writes nothing to stable memory:
      call {!flush_batch} before {!commit}ing any materialized chain.
      No-op for transactions with nothing staged.
      @raise Slb_full when the region runs out of blocks partway; this
      call's blocks are then freed again and the stage is kept, so the
      chain can be materialized once blocks are available. *)

  val flush_batch : t -> int
  (** Write every materialized block image to stable memory, coalescing
      runs of consecutive block ids into single writes — a whole group's
      REDO typically lands in one stable-memory write per region.  Returns
      the number of writes issued (0 when nothing is pending). *)

  val commit : t -> txn_id:int -> unit
  (** Move the chain to this region's committed ring (the commit point),
      stamped with the next global commit sequence number.  A transaction
      with no records commits trivially without a ring entry.  A chain
      still sitting in the staging buffer is materialized and flushed
      first, so commit never makes a transaction durable before its
      records are.
      @raise Slb_full when the region's ring stripe is full. *)

  val abort : t -> txn_id:int -> unit
  (** Discard the transaction's chain and free its blocks. *)
end

val region : t -> int -> Region.t
(** The region owned by executor [i].
    @raise Invalid_argument when out of range. *)

(** {2 Whole-buffer queries}

    These aggregate or search across all regions. *)

val abort : t -> txn_id:int -> unit
(** Discard the transaction's chain whichever region holds it. *)

val pending_committed : t -> int
(** Committed transactions not yet drained, all regions. *)

val uncommitted_count : t -> int
val blocks_free : t -> int

val drain : t -> f:(txn_id:int -> bytes -> pos:int -> len:int -> unit) -> int
(** Process every pending committed chain across all regions in global
    commit-sequence order: repeatedly pick the region whose oldest
    undrained entry has the smallest sequence, stream its record frames
    (oldest first) through [f], free the blocks, advance that region's
    ring head.  Returns the number of transactions drained.

    [f] receives each encoded record in place inside a per-region read
    buffer — valid only for the duration of the call, with the u16 frame
    header guaranteed at [pos - 2] (so a consumer may forward the whole
    [len + 2]-byte frame verbatim, e.g. {!Partition_bin.append}).
    Nothing is decoded and nothing is allocated per record: this is the
    zero-copy drain path ({!Log_record.peek_bin_index} and [peek_seq]
    extract routing fields without materializing records).

    Reentrant calls (possible when [f] suspends on log-disk backpressure
    and the event loop runs another commit) return 0 immediately; the
    outer drain picks up anything committed meanwhile. *)
