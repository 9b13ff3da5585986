(** Fixed-size partition: the unit of memory allocation, checkpointing and
    recovery.

    "Segments are composed of one or more fixed-size partitions ...
    Partitions represent a complete unit of storage; database entities
    (tuples or index components) are stored in partitions and do not cross
    partition boundaries.  Partitions are also used as the unit of transfer
    to disk in checkpoint operations."

    Internally a partition is one [bytes] buffer laid out as a slotted
    page: a header, a slot directory growing up, and an entity heap (the
    paper's "string space", managed as a heap and not two-phase locked)
    growing down.  Entity addresses use the {e slot index}, which is stable
    under compaction, so a checkpoint copy is literally [Bytes.copy] — the
    paper's "copy the partition at memory speeds".

    All mutating operations are expressed so that replaying them (via the
    [*_at] forms carrying explicit slots) against the checkpoint image
    reproduces the exact byte state — the REDO property the Stable Log Tail
    relies on. *)

type t

exception No_space of { partition : Addr.partition; needed : int }
(** Capacity exhaustion: the entity does not fit even after compaction.
    Callers (relation update, catalog store, index component write) catch
    this to relocate; it is never a corruption signal — those raise
    {!Mrdb_util.Fatal.Invariant}. *)

val header_bytes : int
val slot_entry_bytes : int

val create : size:int -> segment:int -> partition:int -> t
(** Fresh empty partition.  [size] must be at least 256 bytes. *)

val size : t -> int
val segment_id : t -> int
val partition_id : t -> int
val address : t -> Addr.partition

val live_entities : t -> int
val slot_count : t -> int
(** Slot-directory length (includes free slots). *)

val free_space : t -> int
(** Bytes available for new entity data (after compaction; the insert path
    compacts automatically when fragmentation blocks an otherwise-fitting
    allocation). *)

val contiguous_free : t -> int

(** {2 Normal-path operations (choose their own slot)} *)

val insert : t -> bytes -> int option
(** [insert t entity] stores the entity and returns its slot, or [None]
    when the partition cannot hold it.  Slot choice is deterministic
    (lowest free slot), so a log-driven replay of inserts allocates
    identically. *)

(** {2 Replay-path operations (explicit slot, used by REDO)} *)

val insert_at : t -> slot:int -> bytes -> unit
(** @raise Failure if the slot is occupied or space is exhausted. *)

val update_at : t -> slot:int -> bytes -> unit
(** Replace the entity at [slot] (any size, reallocating in the heap).
    @raise Failure if the slot is free or space is exhausted. *)

val delete_at : t -> slot:int -> unit
(** @raise Failure if the slot is already free. *)

(** {2 Reads} *)

val read : t -> slot:int -> bytes option
(** Copy of the entity at [slot]; [None] when free or out of range. *)

val read_with : t -> slot:int -> alloc:(int -> bytes) -> bytes option
(** {!read} into a caller-supplied buffer source — the transaction arena
    stages before-images through this without a fresh [bytes] per read.
    [alloc] must return a buffer of exactly the requested length. *)

val read_exn : t -> slot:int -> bytes
val is_live : t -> slot:int -> bool
val iter : (int -> bytes -> unit) -> t -> unit
(** All live entities in slot order. *)

val fold : ('a -> int -> bytes -> 'a) -> 'a -> t -> 'a

(** {2 Checkpoint / recovery} *)

val snapshot : t -> bytes
(** Byte image of the whole partition (a checkpoint copy). *)

val unsafe_raw : t -> bytes
(** The partition's backing buffer itself, no copy.  Strictly read-only
    for the caller, and only valid until the next mutating operation on
    the partition — the checkpoint manager encodes its disk image straight
    out of this under the checkpoint's relation lock, where no simulated
    time passes before the bytes are captured. *)

val of_snapshot : ?pos:int -> ?len:int -> bytes -> t
(** Rebuild a partition from the snapshot held in [len] bytes at [pos] of
    [b] (default: all of [b]) — one copy, the partition's own buffer.
    @raise Mrdb_util.Fatal.Invariant on bad magic or a corrupt header. *)

val compact : t -> unit
(** Force heap compaction (normally automatic). *)

val equal_contents : t -> t -> bool
(** Same live slots with identical entity bytes (ignores physical layout —
    two partitions that differ only in heap placement are equal). *)

val pp : Format.formatter -> t -> unit
