(** On-disk log page format.

    Each page carries: the owning partition's address ("the entry serves as
    a consistency check during recovery so that the recovery manager can be
    assured of having the correct page"), its LSN, a backward link to the
    partition's previous log page, an optional embedded {e log page
    directory} (the LSNs of the previous directory-span of pages — stored
    "in every Nth log page" so recovery can locate whole spans with one
    read and then fetch their pages in the order they must be applied), the
    u16-framed REDO records, and a trailing CRC-32.

    The u16 frame ([len | encoded record]) is the one record currency of
    the whole WAL: SLB blocks, group-commit stages, bin buffers and page
    payloads all hold the same frames, and {!iter_frames} is the one walker
    over them.  Nothing on this side decodes a record; the restore apply
    does, once. *)

open Mrdb_storage

type header = {
  lsn : int64;
  part : Addr.partition;
  prev_lsn : int64;        (** -1 when this is the partition's first page *)
  dir : int64 array;       (** LSNs of the previous span, oldest first; [||] on non-directory pages *)
  nrecords : int;
  used : int;              (** payload bytes *)
}

type chunk = { buf : bytes; pos : int; len : int }
(** A run of u16-framed records: [len] bytes at [pos] in [buf] — a page
    image's payload, or a bin buffer read out of stable memory.  What
    recovery hands the restore apply. *)

val payload_off : dir_size:int -> int
val payload_capacity : page_bytes:int -> dir_size:int -> int
(** Bytes available for framed records. *)

val prepare_into :
  dir_size:int -> lsn:int64 -> part:Addr.partition -> prev_lsn:int64 ->
  dir:int64 array -> used:int -> nrecords:int -> bytes -> unit
(** Write a page header into a caller-owned page buffer (its length is the
    page size): zeroes the buffer, writes the header, leaves the payload
    region for the caller to blit at {!payload_off} before {!finish}.  The
    seal path reuses one such buffer per bin, so the steady state
    allocates no page images.
    @raise Invalid_argument when [used] or the directory exceed capacity. *)

val finish : bytes -> unit
(** Stamp the trailing CRC-32 over a {!prepare_into}d page once its
    payload is in place. *)

val verify : page_bytes:int -> bytes -> bool
(** Size + magic + CRC check only — the acceptance predicate duplexed
    reads use to decide whether a mirror's copy is intact
    ({!Mrdb_hw.Duplex.read_page}'s [verify]). *)

val parse : page_bytes:int -> dir_size:int -> bytes -> (header * chunk, string) result
(** Verify magic and CRC, decode the header and check that the payload's
    frames tile [used] exactly ({!iter_frames}, in place).  The chunk
    points into the image itself — nothing is copied or decoded.
    [Error] explains the mismatch (torn page, overrunning frame, etc.). *)

val iter_frames : bytes -> pos:int -> used:int -> f:(bytes -> pos:int -> len:int -> unit) -> unit
(** Walk the u16-framed records in [b.[pos .. pos+used)], handing [f] each
    encoded record in place: [len] bytes at [pos], u16 header at
    [pos - 2].  No decode, no copy.
    @raise Mrdb_util.Fatal.Invariant on a frame that overruns [used]. *)
