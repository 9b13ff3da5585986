(* Log-linear (HDR-style) histogram: values < 8 get their own bucket;
   above that, each power-of-two octave is split into 4 linear
   sub-buckets.  63-bit values need 8 + 4*60 = 248 buckets.  Recording is
   a bounds computation plus three stores — no allocation, so the
   instrumentation can stay on inside Slb.Region.append and the torture loop. *)

let buckets = 248

type histogram = {
  h_name : string;
  h_unit : string;
  counts : int array;
  mutable n : int;
  mutable max : int;
  mutable sum : float; (* float: sums of ns exceed 62 bits in long runs *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, unit -> int) Hashtbl.t;
  histos : (string, histogram) Hashtbl.t;
  mutable trace : Mrdb_sim.Trace.t option;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    histos = Hashtbl.create 8;
    trace = None;
  }

(* -- counters / gauges ------------------------------------------------------ *)

(* [find]-with-exception instead of [find_opt]: these run on hot paths
   (Slb.Region.append instrumentation, per-commit observations) where the [Some]
   wrapper is a per-call allocation. *)
let counter_ref t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter_ref t name)

let add t name n =
  let r = counter_ref t name in
  r := !r + n

let count t name =
  match Hashtbl.find t.counters name with r -> !r | exception Not_found -> 0

let gauge t name f = Hashtbl.replace t.gauges name f

(* -- histograms ------------------------------------------------------------- *)

let histogram t ?(unit_ = "ns") name =
  match Hashtbl.find t.histos name with
  | h -> h
  | exception Not_found ->
      let h =
        { h_name = name; h_unit = unit_; counts = Array.make buckets 0;
          n = 0; max = 0; sum = 0.0 }
      in
      Hashtbl.add t.histos name h;
      h

(* Index of the most significant set bit of [v >= 8]. *)
let msb v =
  let k = ref 0 and x = ref v in
  if !x >= 1 lsl 32 then begin k := !k + 32; x := !x lsr 32 end;
  if !x >= 1 lsl 16 then begin k := !k + 16; x := !x lsr 16 end;
  if !x >= 1 lsl 8 then begin k := !k + 8; x := !x lsr 8 end;
  if !x >= 1 lsl 4 then begin k := !k + 4; x := !x lsr 4 end;
  if !x >= 1 lsl 2 then begin k := !k + 2; x := !x lsr 2 end;
  if !x >= 2 then Stdlib.incr k;
  !k

let bucket_of v =
  if v < 8 then v
  else
    let k = msb v in
    8 + ((k - 3) * 4) + ((v lsr (k - 2)) land 3)

(* Midpoint of the bucket's value range (exact for the unit buckets). *)
let representative b =
  if b < 8 then b
  else begin
    let k = 3 + ((b - 8) / 4) and sub = (b - 8) mod 4 in
    let step = 1 lsl (k - 2) in
    (1 lsl k) + (sub * step) + (step / 2)
  end

let observe h v =
  let v = if v < 0 then 0 else v in
  h.counts.(bucket_of v) <- h.counts.(bucket_of v) + 1;
  h.n <- h.n + 1;
  if v > h.max then h.max <- v;
  h.sum <- h.sum +. float_of_int v

let observe_us h us = observe h (int_of_float (us *. 1000.0))

let h_count h = h.n
let h_max h = h.max
let h_mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n
let h_unit h = h.h_unit
let h_name h = h.h_name

let quantile h q =
  if h.n = 0 then 0
  else if q >= 1.0 then h.max
  else begin
    let q = Float.max 0.0 q in
    (* Nearest-rank over the bucket cumulative counts. *)
    let rank =
      Stdlib.max 1 (int_of_float (ceil (q *. float_of_int h.n)))
    in
    let acc = ref 0 and b = ref 0 and found = ref (-1) in
    while !found < 0 && !b < buckets do
      acc := !acc + h.counts.(!b);
      if !acc >= rank then found := !b;
      Stdlib.incr b
    done;
    if !found < 0 then h.max else Stdlib.min (representative !found) h.max
  end

let h_clear h =
  Array.fill h.counts 0 buckets 0;
  h.n <- 0;
  h.max <- 0;
  h.sum <- 0.0

(* -- trace attachment / enumeration ----------------------------------------- *)

let attach_trace t trace = t.trace <- Some trace

let counters t =
  let own = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters [] in
  let traced =
    match t.trace with
    | None -> []
    | Some tr ->
        List.filter
          (fun (name, _) -> not (Hashtbl.mem t.counters name))
          (Mrdb_sim.Trace.counters tr)
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (own @ traced)

let gauges t =
  Hashtbl.fold (fun name f acc -> (name, f ()) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold (fun _ h acc -> h :: acc) t.histos []
  |> List.sort (fun a b -> String.compare a.h_name b.h_name)

let trace_series t =
  match t.trace with None -> [] | Some tr -> Mrdb_sim.Trace.series tr
