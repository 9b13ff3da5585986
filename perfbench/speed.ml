(* Machine-speed calibration for the loop's wall-clock figures.

   The hosts this benchmark runs on are shared, and their speed drifts:
   the same binary's debit/credit rate moves between about 35k and 65k
   txn/s from minute to minute, and a register-only loop slows down at the
   same moments (README.md, "Noise").  So the loop times a fixed ALU-only
   kernel — no memory traffic, no code under test — at the end of every
   10 ms window of transactions, and rescales the window's latencies and
   wall time by [ref_ns / kernel time], the kernel time being the mean of
   the readings at the window's two ends.  A loop figure then reads as the
   time it would have taken on a machine where the kernel takes exactly
   [ref_ns].  The correction is partial (the workloads slow down more than
   the kernel does), and only the loop gets it: restarts, catch-ups and
   set-up allocate and copy megabytes, and track the kernel worse than
   they track nothing.  The raw loop figures are in the run's meta line. *)

let iters = 100_000

(* The reference kernel time: typical for the 2.1 GHz Xeon vCPU the
   benchmark was built on (115-190 us observed).  Fixed: changing it
   rescales every loop figure. *)
let ref_ns = 140_000.0

(* All-float, so updating it allocates nothing: a sample is taken a
   time-dependent number of times, and allocation there would make the
   run's heap figures depend on timing. *)
type t = {
  mutable prev : float;  (** the reading before [last] *)
  mutable last : float;
  mutable sum : float;
  mutable count : float;
  mutable at : float;  (** monotonic ns of [last] *)
  mutable factor : float;  (** [ref_ns] / mean of [prev] and [last] *)
}

let kernel () =
  let y = ref 0 in
  for i = 1 to iters do
    y := (!y + (i land 7)) lxor (i lsr 3)
  done;
  Sys.opaque_identity !y

let sample t =
  let t0 = Span.clock_ns () in
  ignore (kernel ());
  let t1 = Span.clock_ns () in
  let d = float_of_int (t1 - t0) in
  t.prev <- t.last;
  t.last <- d;
  t.sum <- t.sum +. d;
  t.count <- t.count +. 1.0;
  t.at <- float_of_int t1;
  t.factor <- ref_ns /. ((t.prev +. d) /. 2.0)

let create () =
  let t = { prev = 0.0; last = 0.0; sum = 0.0; count = 0.0; at = 0.0; factor = 1.0 } in
  sample t;
  t

let due t = float_of_int (Span.clock_ns ()) -. t.at >= 1e7

(* Scale factor from the run's mean kernel time (per-layer loop spans). *)
let run_factor t = ref_ns /. (t.sum /. t.count)
let samples t = int_of_float t.count
