(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's own code:
   name, start and end on the monotonic clock (ns), the enclosing span,
   the transaction id current when it opened, and Gc.minor_words at both
   ends.  Spans nest strictly (one thread, calls are synchronous), so a
   span's self time is its duration minus the summed durations of its
   direct children.

   Recording never allocates on the OCaml heap: raw spans go into
   preallocated flat arrays (the first [capacity] of them; later spans
   are still aggregated but not kept raw), and the per-name aggregates
   are growable float buffers.  [enter]/[leave] are no-ops when the
   recorder is off, so the untraced run executes the same code. *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* The span names, fixed so that a name is an int on the hot path.  [txn]
   and [restart] are the roots: one timed loop transaction, and one
   crash -> fully resident cycle. *)
let names =
  [|
    "txn";
    "restart";
    "core.begin";
    "core.read";
    "core.update_field";
    "core.insert";
    "wal.commit";
    "ckpt.poll";
    "index.insert_row";
    "index.ttree_lookup";
    "index.lhash_lookup";
    "replica.maybe_ship";
    "replica.catchup";
    "replica.cut";
    "replica.promote";
    "recovery.recover";
    "recovery.first_txn";
    "recovery.partition_restore";
    "sim.quiesce";
  |]

let id_of name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Span.id_of: " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let txn = id_of "txn"
let restart = id_of "restart"
let core_begin = id_of "core.begin"
let core_read = id_of "core.read"
let core_update_field = id_of "core.update_field"
let core_insert = id_of "core.insert"
let wal_commit = id_of "wal.commit"
let ckpt_poll = id_of "ckpt.poll"
let index_insert_row = id_of "index.insert_row"
let index_ttree_lookup = id_of "index.ttree_lookup"
let index_lhash_lookup = id_of "index.lhash_lookup"
let replica_maybe_ship = id_of "replica.maybe_ship"
let replica_catchup = id_of "replica.catchup"
let replica_cut = id_of "replica.cut"
let replica_promote = id_of "replica.promote"
let recovery_recover = id_of "recovery.recover"
let recovery_first_txn = id_of "recovery.first_txn"
let recovery_partition_restore = id_of "recovery.partition_restore"
let sim_quiesce = id_of "sim.quiesce"

(* Growable float sample buffer.  Mrdb_util.Stats keeps samples too, but
   its [add] allocates (boxed float fields) and it hides the array that
   the loop rescales in place. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do s := !s +. t.a.(i) done;
    !s

  (* Linear-interpolated quantile (numpy's default); 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let lo = truncate pos in
      let hi = Stdlib.min (t.n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
    end

  let median t = quantile t 0.5
end

type agg = {
  durs_ns : Buf.t;
  mutable self_ns : int;
  mutable alloc_words : float;
}

let max_depth = 16

type t = {
  on : bool;
  capacity : int;
  r_name : int array;
  r_start : int array;
  r_stop : int array;
  r_parent : int array;
  r_txn : int array;
  r_words : float array;  (** minor words allocated inside the span *)
  mutable len : int;
  mutable dropped : int;
  (* the open-span stack *)
  s_name : int array;
  s_start : int array;
  s_words : float array;
  s_child : int array;
  s_raw : int array;  (** raw index of the open span, -1 when not kept *)
  mutable depth : int;
  mutable cur_txn : int;
  aggs : agg array;
}

let create ~on ~capacity =
  let capacity = if on then capacity else 0 in
  {
    on;
    capacity;
    r_name = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_stop = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_txn = Array.make capacity 0;
    r_words = Array.make capacity 0.0;
    len = 0;
    dropped = 0;
    s_name = Array.make max_depth 0;
    s_start = Array.make max_depth 0;
    s_words = Array.make max_depth 0.0;
    s_child = Array.make max_depth 0;
    s_raw = Array.make max_depth (-1);
    depth = 0;
    cur_txn = 0;
    aggs =
      Array.map
        (fun _ -> { durs_ns = Buf.create (); self_ns = 0; alloc_words = 0.0 })
        names;
  }

let on t = t.on
let set_txn t id = t.cur_txn <- id

let enter t name =
  if t.on then begin
    let d = t.depth in
    if d = max_depth then invalid_arg "Span.enter: nesting too deep";
    t.s_name.(d) <- name;
    t.s_child.(d) <- 0;
    t.s_raw.(d) <-
      (if t.len < t.capacity then begin
         let i = t.len in
         t.len <- i + 1;
         t.r_name.(i) <- name;
         t.r_parent.(i) <- (if d = 0 then -1 else t.s_raw.(d - 1));
         t.r_txn.(i) <- t.cur_txn;
         i
       end
       else begin
         t.dropped <- t.dropped + 1;
         -1
       end);
    t.depth <- d + 1;
    t.s_words.(d) <- Gc.minor_words ();
    t.s_start.(d) <- clock_ns ()
  end

let leave t =
  if t.on then begin
    let stop = clock_ns () in
    let words = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = stop - t.s_start.(d) in
    let w = words -. t.s_words.(d) in
    let a = t.aggs.(t.s_name.(d)) in
    Buf.add a.durs_ns (float_of_int dur);
    a.self_ns <- a.self_ns + (dur - t.s_child.(d));
    a.alloc_words <- a.alloc_words +. w;
    if d > 0 then t.s_child.(d - 1) <- t.s_child.(d - 1) + dur;
    let i = t.s_raw.(d) in
    if i >= 0 then begin
      t.r_start.(i) <- t.s_start.(d);
      t.r_stop.(i) <- stop;
      t.r_words.(i) <- w
    end
  end

(* Close every span opened above [depth] (an exception unwound through
   them). *)
let unwind t depth = while t.depth > depth do leave t done
let depth t = t.depth

let agg t name = t.aggs.(name)
let calls t name = Buf.length t.aggs.(name).durs_ns
let total_ns t name = Buf.sum t.aggs.(name).durs_ns
let dropped t = t.dropped

(* Share of the roots' wall time that their descendants cover. *)
let coverage t name =
  let a = t.aggs.(name) in
  let total = Buf.sum a.durs_ns in
  if total = 0.0 then 0.0 else (total -. float_of_int a.self_ns) /. total

let write t path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\ttxn\tminor_words\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%.0f\n" i names.(t.r_name.(i))
      t.r_start.(i) t.r_stop.(i) t.r_parent.(i) t.r_txn.(i) t.r_words.(i)
  done;
  close_out oc
