(* The repository benchmark: one closed-loop client (one process, one
   thread) drives the system through its public functions — Db, Workload,
   Replica — and the existing Trace / Obs / Disk / Ship_channel counters.
   See perfbench/README.md for why each workload exists and what each
   metric means.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR

   A run is a sequence of identical sessions, repeated until [--seconds]
   have passed (at least [min_sessions]).  A session builds a fresh
   primary/standby pair from the seed, sets up the workload's data, seeds
   the standby, then runs a fixed number of cycles:

     loop segment (timed txns) -> quiesce -> standby catch-up -> restart(s)

   Every session replays the same inputs, so the counted metrics (bytes,
   pages, simulated time) of each session must equal the first one's —
   a run checks that — and wall-clock figures are statistics over all
   sessions.  The last line of stdout is the result JSON. *)

module Db = Mrdb_core.Db
module Config = Mrdb_core.Config
module Bank = Mrdb_core.Workload.Bank
module Replica = Mrdb_replica.Replica
module Schema = Mrdb_storage.Schema
module Catalog = Mrdb_storage.Catalog
module Addr = Mrdb_storage.Addr
module Tuple = Mrdb_storage.Tuple
module Rng = Mrdb_util.Rng
module Sim = Mrdb_sim.Sim
module Trace = Mrdb_sim.Trace
module Disk = Mrdb_hw.Disk
module Duplex = Mrdb_hw.Duplex
module Ship_channel = Mrdb_hw.Ship_channel
module Log_disk = Mrdb_wal.Log_disk
module Timeline = Mrdb_obs.Timeline
module Buf = Span.Buf

let clock_ns = Span.clock_ns

exception Check_failed of string

(* Formats the message only when the check fails: checks sit inside
   timed transactions. *)
let check cond fmt =
  if cond then Printf.ikfprintf (fun () -> ()) () fmt
  else Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* A transaction the system aborted or refused for capacity. *)
exception Refused of string

(* -- transactions --------------------------------------------------------- *)

(* One workload instance, live on a primary.  A transaction is split so
   that only the system's work is timed: [draw i] generates the inputs of
   transaction [i] and returns its executor; [body sp db tx] issues its
   DML; [committed ()] folds it into the model once it has committed.
   [check ~full db] verifies the database against the model after a
   restart ([full]: the whole model, else a sample where the whole is
   costly). *)
type instance = {
  draw : int -> int;
  body : Span.t -> Db.t -> Db.txn -> unit;
  committed : unit -> unit;
  check : full:bool -> Db.t -> unit;
}

(* Begin, run the body, commit, then poll for checkpoints — the work
   [Db.commit] does itself under [auto_checkpoint = true], done here so
   the traced run can time checkpointing on its own.  Returns the number
   of checkpoints completed. *)
let run_txn sp db ~executor inst =
  let depth = Span.depth sp in
  Span.enter sp Span.core_begin;
  let tx = Db.begin_txn ~executor db in
  Span.leave sp;
  match
    inst.body sp db tx;
    Span.enter sp Span.wal_commit;
    Db.commit db tx;
    Span.leave sp
  with
  | () ->
      Span.enter sp Span.ckpt_poll;
      let n = Db.process_checkpoints db in
      Span.leave sp;
      n
  | exception
      (( Db.Aborted _ | Mrdb_wal.Slb.Slb_full | Mrdb_wal.Slt.Bin_table_full _
       | Mrdb_wal.Slt.Record_too_large _ | Mrdb_wal.Partition_bin.Pool_exhausted
       | Mrdb_txn.Undo_space.Out_of_undo_space
       | Mrdb_storage.Partition.No_space _
       | Mrdb_storage.Relation.Tuple_too_large _ ) as e) ->
      Span.unwind sp depth;
      (match e with
      | Db.Aborted _ -> () (* already rolled back *)
      | _ -> ( try Db.abort db tx with Invalid_argument _ -> ()));
      raise (Refused (Printexc.to_string e))

type restart_kind = Local of int  (** restarts per cycle *) | Failover

type spec = {
  name : string;
  config : Config.t;
  start : Rng.t -> Db.t -> instance;  (** set up the data, return the instance *)
  cycles : int;
  segment : int;  (** loop txns per cycle *)
  catchups : int;  (** standby catch-ups per cycle *)
  outage : int;  (** loop txns with the standby down before each catch-up *)
  ships : bool;  (** [Replica.maybe_ship] after every commit *)
  rows_per_txn : int;  (** rows each loop txn inserts into an indexed relation *)
  restart : restart_kind;
}

(* Sessions per run, at least: the second one checks that the first's
   counted figures repeat. *)
let min_sessions = 2

let bench_config = { Config.default with Config.auto_checkpoint = false }

(* -- debit/credit --------------------------------------------------------- *)

let accounts = 10_000
let tellers = 100
let branches = 10

let bank_start rng db =
  let bank = Bank.setup db ~accounts ~tellers ~branches () in
  (* Bank.t keeps its addresses private; the bank's own scan gives them. *)
  let addrs rel n =
    let a = Array.make n Addr.null in
    Db.with_txn db (fun tx ->
        List.iter
          (fun (addr, tup) -> a.(Schema.to_int (Tuple.field tup 0)) <- addr)
          (Db.scan db tx ~rel));
    a
  in
  let acct = addrs "account" accounts in
  let tell = addrs "teller" tellers in
  let br = addrs "branch" branches in
  let net = ref 0 in
  let bump sp db tx ~rel addr ~col delta =
    Span.enter sp Span.core_read;
    let tup = Db.read db tx ~rel addr in
    Span.leave sp;
    match tup with
    | None -> raise (Check_failed (rel ^ ": row missing"))
    | Some tup ->
        let cur = Schema.to_int (Tuple.field tup col) in
        Span.enter sp Span.core_update_field;
        let addr' =
          Db.update_field db tx ~rel addr ~column:"balance"
            (Schema.int (cur + delta))
        in
        Span.leave sp;
        check (addr' = addr) "%s: balance update moved the row" rel
  in
  let aid = ref 0 and tid = ref 0 and delta = ref 0 in
  let draw _ =
    aid := Rng.int rng accounts;
    tid := Rng.int rng tellers;
    delta := Rng.int_in rng (-100) 100;
    0
  in
  let body sp db tx =
    bump sp db tx ~rel:"account" acct.(!aid) ~col:2 !delta;
    bump sp db tx ~rel:"teller" tell.(!tid) ~col:2 !delta;
    bump sp db tx ~rel:"branch" br.(!tid mod branches) ~col:1 !delta;
    Span.enter sp Span.core_insert;
    ignore
      (Db.insert db tx ~rel:"history"
         [| Schema.int !aid; Schema.int !tid; Schema.int !delta |]);
    Span.leave sp
  in
  let committed () = net := !net + !delta in
  let check_db ~full:_ db =
    check (Bank.consistent bank db) "debit/credit invariant broken";
    let total = Bank.audit bank db in
    check
      (Int64.equal total (Int64.add (Bank.expected_total bank) (Int64.of_int !net)))
      "account total %Ld, expected %Ld + %d" total (Bank.expected_total bank) !net
  in
  { draw; body; committed; check = check_db }

(* -- hot update ----------------------------------------------------------- *)

let hot_rows = 200_000
let hot_theta = 0.99

let cells_schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

let hot_start rng db =
  Db.create_relation db ~name:"cells" ~schema:cells_schema;
  let addrs = Array.make hot_rows Addr.null in
  let i = ref 0 in
  while !i < hot_rows do
    let stop = Stdlib.min hot_rows (!i + 100) in
    Db.with_txn db (fun tx ->
        while !i < stop do
          addrs.(!i) <- Db.insert db tx ~rel:"cells" [| Schema.int !i; Schema.int 0 |];
          incr i
        done);
    ignore (Db.process_checkpoints db)
  done;
  (* The model: last committed value of every row, and which rows the
     loop has touched. *)
  let model = Array.make hot_rows 0 in
  let touched = Buf.create () in
  let seen = Bytes.make hot_rows '\000' in
  let key = ref 0 and value = ref 0 in
  (* txns alternate between the two executors' SLB regions *)
  let draw i =
    key := Rng.zipf rng ~n:hot_rows ~theta:hot_theta;
    value := model.(!key) + Rng.int_in rng 1 100;
    i land 1
  in
  let body sp db tx =
    let k = !key in
    Span.enter sp Span.core_update_field;
    let addr' = Db.update_field db tx ~rel:"cells" addrs.(k) ~column:"v" (Schema.int !value) in
    Span.leave sp;
    check (addr' = addrs.(k)) "cells: update moved row %d" k
  in
  let committed () =
    let k = !key in
    model.(k) <- !value;
    if Bytes.get seen k = '\000' then begin
      Bytes.set seen k '\001';
      Buf.add touched (float_of_int k)
    end
  in
  let check_db ~full db =
    let probe tx k =
      match Db.read db tx ~rel:"cells" addrs.(k) with
      | None -> raise (Check_failed (Printf.sprintf "cells: row %d missing" k))
      | Some tup ->
          let v = Schema.to_int (Tuple.field tup 1) in
          check (v = model.(k)) "cells: row %d is %d, last committed %d" k v model.(k)
    in
    (* [full]: every touched row, in read-only txns of 1000 rows; else the
       500 most recently first-touched.  Then a spread of rows, touched or
       not. *)
    let n = Buf.length touched in
    let j = ref (if full then 0 else Stdlib.max 0 (n - 500)) in
    while !j < n do
      let stop = Stdlib.min n (!j + 1000) in
      Db.with_txn db (fun tx ->
          for q = !j to stop - 1 do
            probe tx (int_of_float touched.Buf.a.(q))
          done);
      j := stop
    done;
    Db.with_txn db (fun tx ->
        for q = 0 to 99 do
          probe tx (q * (hot_rows / 100))
        done);
    check (Db.cardinality db ~rel:"cells" = hot_rows) "cells: cardinality changed"
  in
  { draw; body; committed; check = check_db }

(* -- indexed ingest ------------------------------------------------------- *)

let ingest_base = 10_000
let ingest_rows_per_txn = 10
let ingest_lookups = 10

let ingest_schema =
  Schema.of_list [ ("id", Schema.Int); ("code", Schema.Int); ("s", Schema.Str) ]

let ingest_start rng db =
  Db.create_relation db ~name:"ingest" ~schema:ingest_schema;
  Db.create_index db ~rel:"ingest" ~name:"by_id" ~kind:Catalog.Ttree ~key_column:"id";
  Db.create_index db ~rel:"ingest" ~name:"by_code" ~kind:Catalog.Lhash
    ~key_column:"code";
  (* Row [id] is a pure function of the seed, so the model is one counter:
     rows 0 .. !rows-1 are committed.  [code] is a bijection of [id] (odd
     multiplier, xor) so both indexes have unique keys. *)
  let salt = Rng.int rng 0x3fff_ffff in
  let code id = ((id * 0x9E3779B1) lxor salt) land 0x3fff_ffff in
  let text id =
    let h = (code id * 0x2545F491) land 0x3fff_ffff in
    String.init (16 + (h mod 49)) (fun j -> Char.chr (97 + ((h lsr (j mod 24)) land 15)))
  in
  let row id = [| Schema.int id; Schema.int (code id); Schema.S (text id) |] in
  let rows = ref 0 in
  let insert_batch sp db tx =
    for id = !rows to !rows + ingest_rows_per_txn - 1 do
      Span.enter sp Span.index_insert_row;
      ignore (Db.insert db tx ~rel:"ingest" (row id));
      Span.leave sp
    done
  in
  while !rows < ingest_base do
    Db.with_txn db (insert_batch (Span.create ~on:false ~capacity:0) db);
    rows := !rows + ingest_rows_per_txn;
    ignore (Db.process_checkpoints db)
  done;
  let expect ~index id = function
    | [ (_, tup) ] ->
        check (Tuple.equal tup (row id)) "ingest: %s lookup of %d returned another row"
          index id
    | l -> raise (Check_failed (Printf.sprintf "ingest: %s lookup of %d gave %d rows" index id (List.length l)))
  in
  let keys = Array.make ingest_lookups 0 in
  let draw _ =
    for j = 0 to ingest_lookups - 1 do
      keys.(j) <- Rng.int rng !rows
    done;
    0
  in
  let body sp db tx =
    insert_batch sp db tx;
    Array.iter
      (fun id ->
        Span.enter sp Span.index_ttree_lookup;
        let r = Db.lookup db tx ~rel:"ingest" ~index:"by_id" (Schema.int id) in
        Span.leave sp;
        expect ~index:"by_id" id r;
        Span.enter sp Span.index_lhash_lookup;
        let r = Db.lookup db tx ~rel:"ingest" ~index:"by_code" (Schema.int (code id)) in
        Span.leave sp;
        expect ~index:"by_code" id r)
      keys
  in
  let committed () = rows := !rows + ingest_rows_per_txn in
  let check_db ~full:_ db =
    let card = Db.cardinality db ~rel:"ingest" in
    check (card = !rows) "ingest: cardinality %d, committed %d" card !rows;
    Db.with_txn db (fun tx ->
        for j = 0 to 199 do
          let id = j * (!rows / 200) in
          expect ~index:"by_id" id
            (Db.lookup db tx ~rel:"ingest" ~index:"by_id" (Schema.int id));
          expect ~index:"by_code" id
            (Db.lookup db tx ~rel:"ingest" ~index:"by_code" (Schema.int (code id)))
        done)
  in
  { draw; body; committed; check = check_db }

(* -- workloads ------------------------------------------------------------ *)

let specs =
  [
    {
      name = "debit_credit";
      config = bench_config;
      start = bank_start;
      cycles = 4;
      segment = 20_000;
      catchups = 1;
      outage = 0;
      ships = false;
      rows_per_txn = 0;
      restart = Local 2;
    };
    {
      name = "hot_update";
      config =
        (let s = bench_config.Config.stable in
         {
           bench_config with
           Config.redo_codec = Config.Adaptive;
           executors = 2;
           (* striping divides the block pool; give each region the
              single-executor budget *)
           stable =
             { s with Mrdb_wal.Stable_layout.slb_block_count = 2 * s.slb_block_count };
         });
      start = hot_start;
      cycles = 4;
      segment = 50_000;
      catchups = 1;
      outage = 0;
      ships = false;
      rows_per_txn = 0;
      restart = Local 3;
    };
    {
      name = "indexed_ingest";
      config = bench_config;
      start = ingest_start;
      cycles = 2;
      segment = 500;
      catchups = 1;
      outage = 0;
      ships = false;
      rows_per_txn = ingest_rows_per_txn;
      restart = Local 3;
    };
    {
      name = "standby_catchup";
      config = bench_config;
      start = bank_start;
      cycles = 1;
      segment = 500;
      catchups = 3;
      outage = 40;
      ships = true;
      rows_per_txn = 0;
      restart = Failover;
    };
  ]

(* -- counters ------------------------------------------------------------- *)

(* Values read at loop, catch-up and restart boundaries; deltas between
   two readings are what a boundary pair cost. *)
let counter_names =
  [|
    "log_bytes"; "log_records"; "cmd_records"; "flips"; "checkpoints";
    "ckpt_req_age"; "ckpt_req_update_count"; "ckpt_pages_written";
    "ckpt_pages_read"; "ckpt_busy_us"; "log_pages_written"; "log_pages_read";
    "partitions_recovered";
    "records_applied"; "alloc_words"; "minor_collections"; "major_collections";
  |]

let cidx name =
  let rec go i = if counter_names.(i) = name then i else go (i + 1) in
  go 0

let c_log_bytes = cidx "log_bytes"
let c_log_records = cidx "log_records"
let c_cmd_records = cidx "cmd_records"
let c_flips = cidx "flips"
let c_checkpoints = cidx "checkpoints"
let c_ckpt_req_age = cidx "ckpt_req_age"
let c_ckpt_req_update = cidx "ckpt_req_update_count"
let c_ckpt_pages_written = cidx "ckpt_pages_written"
let c_ckpt_pages_read = cidx "ckpt_pages_read"
let c_ckpt_busy_us = cidx "ckpt_busy_us"
let c_log_pages_written = cidx "log_pages_written"
let c_log_pages_read = cidx "log_pages_read"
let c_partitions_recovered = cidx "partitions_recovered"
let c_records_applied = cidx "records_applied"
let c_alloc_words = cidx "alloc_words"
let c_minor = cidx "minor_collections"
let c_major = cidx "major_collections"

let snapshot db =
  let tr = Db.trace db in
  let cnt = Trace.count tr in
  let ckpt = Db.ckpt_disk db in
  let dup = Log_disk.duplex (Db.log_disk db) in
  let gc = Gc.quick_stat () in
  let v = Array.make (Array.length counter_names) 0.0 in
  let set i x = v.(i) <- x in
  let seti i x = v.(i) <- float_of_int x in
  seti c_log_bytes (cnt "codec_log_bytes");
  seti c_log_records (cnt "log_records");
  seti c_cmd_records (cnt "codec_cmd_records");
  seti c_flips (cnt "codec_flips_to_logical" + cnt "codec_flips_to_physical");
  seti c_checkpoints (cnt "checkpoints");
  seti c_ckpt_req_age (cnt "ckpt_req_age");
  seti c_ckpt_req_update (cnt "ckpt_req_update_count");
  seti c_ckpt_pages_written (Disk.stats_pages_written ckpt);
  seti c_ckpt_pages_read (Disk.stats_pages_read ckpt);
  set c_ckpt_busy_us (Disk.stats_busy_us ckpt);
  seti c_log_pages_written (Log_disk.pages_written (Db.log_disk db));
  seti c_log_pages_read
    (Disk.stats_pages_read (Duplex.primary dup) + Disk.stats_pages_read (Duplex.mirror dup));
  seti c_partitions_recovered (cnt "partitions_recovered");
  seti c_records_applied (cnt "recovery_records_applied");
  set c_alloc_words (gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words);
  seti c_minor gc.Gc.minor_collections;
  seti c_major gc.Gc.major_collections;
  v

let delta a b = Array.mapi (fun i x -> x -. a.(i)) b
let accumulate acc d = Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) d

(* -- run state ------------------------------------------------------------ *)

type run = {
  spec : spec;
  sp : Span.t;  (** the traced run's recorder; off when untraced *)
  quiet : Span.t;  (** always off: the untraced half of the traced loop *)
  mutable next_txn : int;
  mutable attempted : int;  (** every txn: loop and restart *)
  mutable failed : int;
  mutable loop_attempted : int;
  mutable loop_committed : int;
  loop_wall_ns : float array;  (** loop wall time: [|rescaled (Speed); raw|] *)
  speed : Speed.t;
  mutable win_ns : int;  (** the open loop window: txn wall time, raw *)
  mutable win_start : int;  (** the open window's first sample in [lat_us] *)
  mutable win_start_traced : int;
  lat_raw_us : Buf.t;  (** [lat_us] before rescaling *)
  lat_us : Buf.t;  (** committed loop txns (untraced ones in a traced run) *)
  lat_traced_us : Buf.t;
  loop : float array;  (** counter deltas over every loop segment *)
  first : float array;  (** the same, first session only *)
  mutable first_ship_bytes : float;
  mutable first_commits : int;
  mutable session_commits : int;
  mutable session_ship_bytes : float;
  mutable session_loop : float array;
  mutable session_sim : float list;
  mutable first_sim : float list;
  mutable loop_cuts : int;
  setup_s : Buf.t;
  restart_first_ms : Buf.t;
  restart_resident_ms : Buf.t;
  sim_first_ms : Buf.t;  (** first session only (the rest repeat it) *)
  sim_resident_ms : Buf.t;
  recover_ms : Buf.t;
  first_txn_ms : Buf.t;
  restore_step_ms : Buf.t;
  mutable restart_deltas : float array list;
  sim_phase_ms : Buf.t array;
  catchup_ms : Buf.t;
  cut_ms : Buf.t;
  catchup_cut_ms : Buf.t;
  promote_ms : Buf.t;
  quiesce_sim_ms : Buf.t;
  mutable heap_peak_words : int;
  mutable ckpt_page_bytes : int;
  mutable traced_checkpoints : int;
  mutable ship_cuts : int;
  mutable ship_log_pages : int;
  mutable ship_ckpt_pages : int;
  mutable sessions : int;
  mutable boundaries : string list;  (** traced run: counter deltas per boundary, JSON *)
  mutable last_counters : (string * int) list;
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* Traced run: the full Trace counter deltas of [db] since the previous
   boundary, one JSON object per boundary. *)
let boundary r db ~session ~at =
  if Span.on r.sp then begin
    let now = Trace.counters (Db.trace db) in
    let prev = r.last_counters in
    let deltas =
      List.filter_map
        (fun (k, v) ->
          let p = try List.assoc k prev with Not_found -> 0 in
          if v <> p then Some (Printf.sprintf "%S: %d" k (v - p)) else None)
        now
    in
    r.last_counters <- now;
    r.boundaries <-
      Printf.sprintf "{\"session\": %d, \"at\": %S, \"t_ns\": %d, \"deltas\": {%s}}"
        session at (clock_ns ()) (String.concat ", " deltas)
      :: r.boundaries
  end

(* End a loop window: rescale its samples in place by the machine speed
   measured at its two ends (see Speed).  Nothing here allocates: it runs
   a time-dependent number of times. *)
let close_window r =
  Speed.sample r.speed;
  let k = r.speed.Speed.factor in
  let a = r.lat_us.Buf.a in
  for j = r.win_start to Buf.length r.lat_us - 1 do
    a.(j) <- a.(j) *. k
  done;
  let a = r.lat_traced_us.Buf.a in
  for j = r.win_start_traced to Buf.length r.lat_traced_us - 1 do
    a.(j) <- a.(j) *. k
  done;
  r.win_start <- Buf.length r.lat_us;
  r.win_start_traced <- Buf.length r.lat_traced_us;
  r.loop_wall_ns.(0) <- r.loop_wall_ns.(0) +. (float_of_int r.win_ns *. k);
  r.loop_wall_ns.(1) <- r.loop_wall_ns.(1) +. float_of_int r.win_ns;
  r.win_ns <- 0

let loop_txn r ~pair ~inst ~ship =
  let db = Replica.primary pair in
  let i = r.next_txn in
  r.next_txn <- i + 1;
  r.attempted <- r.attempted + 1;
  r.loop_attempted <- r.loop_attempted + 1;
  (* The traced run traces every other transaction; the rest measure the
     tracing overhead. *)
  let traced = Span.on r.sp && i land 1 = 0 in
  let sp = if traced then r.sp else r.quiet in
  Span.set_txn sp i;
  let executor = inst.draw i in
  let t0 = clock_ns () in
  Span.enter sp Span.txn;
  let ok =
    match run_txn sp db ~executor inst with
    | n ->
        if traced then r.traced_checkpoints <- r.traced_checkpoints + n;
        if ship then begin
          Span.enter sp Span.replica_maybe_ship;
          let c0 = clock_ns () in
          let cut = Replica.maybe_ship pair in
          if cut then begin
            r.loop_cuts <- r.loop_cuts + 1;
            Buf.add r.cut_ms (ms_of_ns (clock_ns () - c0))
          end;
          Span.leave sp
        end;
        true
    | exception Refused _ -> false
  in
  Span.leave sp;
  let dt = clock_ns () - t0 in
  r.win_ns <- r.win_ns + dt;
  if ok then begin
    inst.committed ();
    r.loop_committed <- r.loop_committed + 1;
    r.session_commits <- r.session_commits + 1;
    let us = float_of_int dt /. 1e3 in
    if traced then Buf.add r.lat_traced_us us
    else begin
      Buf.add r.lat_raw_us us;
      Buf.add r.lat_us us
    end
  end
  else r.failed <- r.failed + 1

let segment r ~pair ~inst ~n ~ship =
  Speed.sample r.speed;
  for _ = 1 to n do
    loop_txn r ~pair ~inst ~ship;
    if Speed.due r.speed then close_window r
  done;
  close_window r

let catchup r ~pair =
  Span.enter r.sp Span.replica_catchup;
  let t0 = clock_ns () in
  let cuts = ref 0 in
  while Replica.lag_records pair > 0 && !cuts < 64 do
    Span.enter r.sp Span.replica_cut;
    let c0 = clock_ns () in
    ignore (Replica.ship_cut pair);
    let dt = ms_of_ns (clock_ns () - c0) in
    Span.leave r.sp;
    Buf.add r.cut_ms dt;
    Buf.add r.catchup_cut_ms dt;
    incr cuts
  done;
  Buf.add r.catchup_ms (ms_of_ns (clock_ns () - t0));
  Span.leave r.sp;
  check (Replica.lag_records pair = 0) "standby still %d records behind after %d cuts"
    (Replica.lag_records pair) !cuts

(* Crash -> recovery -> first committed txn -> fully resident, on the
   primary (Local) or by promoting the standby (Failover), then the
   correctness check on the node that serves afterwards. *)
let restart r ~pair ~inst ~session ~full =
  let failover = r.spec.restart = Failover in
  let node = if failover then Replica.standby pair else Replica.primary pair in
  let sim = Db.sim node in
  (* Start every restart from the same collector state: the loop's
     garbage is not the restart's cost. *)
  Gc.full_major ();
  let before = snapshot node in
  let i = r.next_txn in
  r.next_txn <- i + 1;
  r.attempted <- r.attempted + 1;
  let executor = inst.draw i in
  let s0 = Sim.now sim in
  Span.set_txn r.sp i;
  Span.enter r.sp Span.restart;
  let t0 = clock_ns () in
  let db =
    if failover then begin
      Span.enter r.sp Span.replica_promote;
      Replica.crash_primary pair;
      let db = Replica.promote ~mode:Config.On_demand pair in
      Span.leave r.sp;
      db
    end
    else begin
      Span.enter r.sp Span.recovery_recover;
      Db.crash node;
      Db.recover ~mode:Config.On_demand node;
      Span.leave r.sp;
      node
    end
  in
  let t1 = clock_ns () in
  Span.enter r.sp Span.recovery_first_txn;
  (match run_txn r.sp db ~executor inst with
  | _ -> inst.committed ()
  | exception Refused why ->
      r.failed <- r.failed + 1;
      raise (Check_failed ("first txn after restart refused: " ^ why)));
  Span.leave r.sp;
  let t2 = clock_ns () in
  let s2 = Sim.now sim in
  let more = ref true in
  while !more do
    Span.enter r.sp Span.recovery_partition_restore;
    let c0 = clock_ns () in
    more := Db.background_recovery_step db;
    if !more then Buf.add r.restore_step_ms (ms_of_ns (clock_ns () - c0));
    Span.leave r.sp
  done;
  let t3 = clock_ns () in
  let s3 = Sim.now sim in
  Span.leave r.sp;
  check (Db.resident_fraction db = 1.0) "resident fraction %.3f after the sweep"
    (Db.resident_fraction db);
  let ms a b = ms_of_ns (b - a) in
  if failover then Buf.add r.promote_ms (ms t0 t1);
  Buf.add r.recover_ms (ms t0 t1);
  Buf.add r.first_txn_ms (ms t1 t2);
  Buf.add r.restart_first_ms (ms t0 t2);
  Buf.add r.restart_resident_ms (ms t0 t3);
  let sim_first = (s2 -. s0) /. 1e3 and sim_resident = (s3 -. s0) /. 1e3 in
  r.session_sim <- sim_resident :: sim_first :: r.session_sim;
  if session = 1 then begin
    Buf.add r.sim_first_ms sim_first;
    Buf.add r.sim_resident_ms sim_resident;
    List.iteri
      (fun k (_, _, us) -> Buf.add r.sim_phase_ms.(k) (us /. 1e3))
      (Timeline.phases (Mrdb_obs.Obs.timeline (Db.obs db)))
  end;
  r.restart_deltas <- delta before (snapshot db) :: r.restart_deltas;
  boundary r db ~session ~at:"restart";
  inst.check ~full db

let session r ~seed ~session =
  let spec = r.spec in
  let rng = Rng.of_int seed in
  r.session_commits <- 0;
  r.session_ship_bytes <- 0.0;
  r.session_loop <- Array.make (Array.length counter_names) 0.0;
  r.session_sim <- [];
  Gc.full_major ();
  let t0 = clock_ns () in
  let pair = Replica.create ~config:spec.config () in
  let inst = spec.start rng (Replica.primary pair) in
  Buf.add r.setup_s (float_of_int (clock_ns () - t0) /. 1e9);
  (* Seed the standby (untimed): every later cut ships a delta. *)
  ignore (Replica.ship_cut pair);
  let primary = Replica.primary pair in
  r.ckpt_page_bytes <- (Disk.params (Db.ckpt_disk primary)).Disk.page_bytes;
  let ship_count name = Trace.count (Db.trace primary) name in
  let ship0 = List.map ship_count [ "ship_cuts"; "ship_log_pages"; "ship_ckpt_pages" ] in
  r.last_counters <- Trace.counters (Db.trace (Replica.primary pair));
  boundary r (Replica.primary pair) ~session ~at:"setup";
  (* Run [n] loop txns, let the devices finish what they started, and
     charge the counter deltas to the loop. *)
  let loop_part n =
    let c0 = snapshot primary in
    segment r ~pair ~inst ~n ~ship:spec.ships;
    let q0 = Sim.now (Db.sim primary) in
    Span.enter r.sp Span.sim_quiesce;
    Db.quiesce primary;
    Span.leave r.sp;
    Buf.add r.quiesce_sim_ms ((Sim.now (Db.sim primary) -. q0) /. 1e3);
    let d = delta c0 (snapshot primary) in
    accumulate r.loop d;
    accumulate r.session_loop d;
    boundary r primary ~session ~at:"loop"
  in
  for _ = 1 to spec.cycles do
    let shipped0 = Ship_channel.bytes_shipped (Replica.fwd_channel pair) in
    loop_part spec.segment;
    for _ = 1 to spec.catchups do
      if spec.outage > 0 then begin
        Replica.crash_standby pair;
        loop_part spec.outage;
        Replica.resume_standby pair
      end;
      catchup r ~pair;
      boundary r primary ~session ~at:"catchup"
    done;
    r.session_ship_bytes <-
      r.session_ship_bytes
      +. float_of_int (Ship_channel.bytes_shipped (Replica.fwd_channel pair) - shipped0);
    (match spec.restart with
    | Local n ->
        for j = 1 to n do
          restart r ~pair ~inst ~session ~full:(j = n)
        done
    | Failover -> restart r ~pair ~inst ~session ~full:true)
  done;
  (match List.map2 (fun n x0 -> ship_count n - x0)
           [ "ship_cuts"; "ship_log_pages"; "ship_ckpt_pages" ] ship0 with
  | [ cuts; log_pages; ckpt_pages ] ->
      r.ship_cuts <- r.ship_cuts + cuts;
      r.ship_log_pages <- r.ship_log_pages + log_pages;
      r.ship_ckpt_pages <- r.ship_ckpt_pages + ckpt_pages
  | _ -> ());
  if session = 1 then begin
    r.heap_peak_words <- (Gc.quick_stat ()).Gc.top_heap_words;
    Array.blit r.session_loop 0 r.first 0 (Array.length r.first);
    r.first_commits <- r.session_commits;
    r.first_ship_bytes <- r.session_ship_bytes;
    r.first_sim <- r.session_sim
  end
  else begin
    (* Same seed, same inputs: every counted figure must repeat. *)
    let same a b = Float.equal a b in
    check (r.session_commits = r.first_commits) "session %d committed %d txns, session 1 %d"
      session r.session_commits r.first_commits;
    check (same r.session_loop.(c_log_bytes) r.first.(c_log_bytes)
           && same r.session_loop.(c_ckpt_pages_written) r.first.(c_ckpt_pages_written)
           && same r.session_ship_bytes r.first_ship_bytes
           && r.session_sim = r.first_sim)
      "session %d counted figures differ from session 1's" session
  end

(* -- metrics -------------------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_first_txn r x = ratio x (float_of_int r.first_commits)

(* Loop figures are rescaled window by window as they are taken (see
   Speed); restart, catch-up and set-up times are reported as measured. *)
let end_to_end r =
  [
    ("txn_per_s", float_of_int r.loop_committed /. (r.loop_wall_ns.(0) /. 1e9), "1/s");
    ("txn_p50_us", Buf.quantile r.lat_us 0.5, "us");
    ("txn_p99_us", Buf.quantile r.lat_us 0.99, "us");
    ("txn_ok_share", ratio (float_of_int r.loop_committed) (float_of_int r.loop_attempted), "share");
    ("restart_first_commit_ms", Buf.median r.restart_first_ms, "ms");
    ("restart_resident_ms", Buf.median r.restart_resident_ms, "ms");
    ("sim_restart_first_commit_ms", Buf.median r.sim_first_ms, "ms");
    ("sim_restart_resident_ms", Buf.median r.sim_resident_ms, "ms");
    ("log_bytes_per_txn", per_first_txn r r.first.(c_log_bytes), "B");
    ( "ckpt_bytes_per_txn",
      per_first_txn r (r.first.(c_ckpt_pages_written) *. float_of_int r.ckpt_page_bytes),
      "B" );
    ("heap_peak_mb", float_of_int (r.heap_peak_words * (Sys.word_size / 8)) /. 1048576.0, "MB");
    ("setup_s", Buf.median r.setup_s, "s");
    ("catchup_ms", Buf.median r.catchup_ms, "ms");
    ("ship_bytes_per_txn", per_first_txn r r.first_ship_bytes, "B");
  ]

(* Loop spans are rescaled by the run's mean machine-speed factor, like
   the loop's end-to-end figures; restart and catch-up spans are not. *)
let per_layer r =
  let sp = r.sp in
  let k = Speed.run_factor r.speed in
  let us_q name q = Buf.quantile (Span.agg sp name).Span.durs_ns q *. k /. 1e3 in
  let loop_ns = Span.total_ns sp Span.txn in
  let share names = ratio (List.fold_left (fun a n -> a +. Span.total_ns sp n) 0.0 names) loop_ns in
  let committed = float_of_int r.loop_committed in
  let per_k x = ratio (1000.0 *. x) committed in
  let loop c = r.loop.(c) in
  let restart_median c =
    let b = Buf.create () in
    List.iter (fun d -> Buf.add b d.(c)) r.restart_deltas;
    Buf.median b
  in
  let phases =
    List.mapi
      (fun i p ->
        ( Printf.sprintf "recovery.sim_%s_ms" (Timeline.phase_name p),
          Buf.median r.sim_phase_ms.(i),
          "ms" ))
      Timeline.all_phases
  in
  let alloc =
    Array.to_list
      (Array.mapi
         (fun id name ->
           let calls = float_of_int (Span.calls sp id) in
           (name ^ ".alloc_bytes_per_call",
            ratio ((Span.agg sp id).Span.alloc_words *. float_of_int (Sys.word_size / 8)) calls,
            "B"))
         Span.names)
  in
  [
    ("core.begin_us_p50", us_q Span.core_begin 0.5, "us");
    ("core.read_us_p50", us_q Span.core_read 0.5, "us");
    ("core.update_field_us_p50", us_q Span.core_update_field 0.5, "us");
    ("core.insert_us_p50", us_q Span.core_insert 0.5, "us");
    ("core.dml_share",
     share [ Span.core_begin; Span.core_read; Span.core_update_field; Span.core_insert ],
     "share");
    ("wal.commit_us_p50", us_q Span.wal_commit 0.5, "us");
    ("wal.commit_us_p99", us_q Span.wal_commit 0.99, "us");
    ("wal.commit_share", share [ Span.wal_commit ], "share");
    ("wal.records_per_txn", ratio (loop c_log_records) committed, "count");
    ("wal.bytes_per_record", ratio (loop c_log_bytes) (loop c_log_records), "B");
    ("wal.pages_flushed_per_ktxn", per_k (loop c_log_pages_written), "count");
    ("ckpt.poll_us_p99", us_q Span.ckpt_poll 0.99, "us");
    ("ckpt.ms_per_checkpoint",
     ratio (Span.total_ns sp Span.ckpt_poll *. k /. 1e6) (float_of_int r.traced_checkpoints),
     "ms");
    ("ckpt.checkpoints_per_ktxn", per_k (loop c_checkpoints), "count");
    ("ckpt.age_trigger_share",
     ratio (loop c_ckpt_req_age) (loop c_ckpt_req_age +. loop c_ckpt_req_update),
     "share");
    ("ckpt.share", share [ Span.ckpt_poll ], "share");
    ("index.insert_row_us_p50", us_q Span.index_insert_row 0.5, "us");
    ("index.ttree_lookup_us_p50", us_q Span.index_ttree_lookup 0.5, "us");
    ("index.lhash_lookup_us_p50", us_q Span.index_lhash_lookup 0.5, "us");
    ("index.log_bytes_per_row",
     ratio (loop c_log_bytes) (committed *. float_of_int r.spec.rows_per_txn),
     "B");
    ("logical.cmd_record_share", ratio (loop c_cmd_records) (loop c_log_records), "share");
    ("logical.flips", r.first.(c_flips), "count");
    ("recovery.recover_ms", Buf.quantile r.recover_ms 0.5, "ms");
    ("recovery.first_txn_ms", Buf.quantile r.first_txn_ms 0.5, "ms");
    ("recovery.partition_restore_ms_p50", Buf.quantile r.restore_step_ms 0.5, "ms");
    ("recovery.partition_restore_ms_p90", Buf.quantile r.restore_step_ms 0.9, "ms");
    ("recovery.partitions_restored", restart_median c_partitions_recovered, "count");
    ("recovery.records_applied", restart_median c_records_applied, "count");
  ]
  @ phases
  @ [
      ("hw.ckpt_pages_written_per_ktxn", per_k (loop c_ckpt_pages_written), "count");
      ("hw.restart_ckpt_pages_read", restart_median c_ckpt_pages_read, "count");
      ("hw.restart_log_pages_read", restart_median c_log_pages_read, "count");
      ("hw.ckpt_busy_sim_ms", r.first.(c_ckpt_busy_us) /. 1e3, "ms");
      ("sim.quiesce_ms", Buf.median r.quiesce_sim_ms, "ms");
      ("replica.cut_ms_p50", Buf.quantile r.cut_ms 0.5, "ms");
      ("replica.cuts_per_ktxn", per_k (float_of_int r.loop_cuts), "count");
      ("replica.log_pages_per_cut",
       ratio (float_of_int r.ship_log_pages) (float_of_int r.ship_cuts), "count");
      ("replica.ckpt_pages_per_cut",
       ratio (float_of_int r.ship_ckpt_pages) (float_of_int r.ship_cuts), "count");
      ("replica.catchup_cut_ms", Buf.quantile r.catchup_cut_ms 0.5, "ms");
      ("replica.promote_ms", Buf.quantile r.promote_ms 0.5, "ms");
      ("gc.alloc_bytes_per_txn",
       ratio (loop c_alloc_words *. float_of_int (Sys.word_size / 8)) committed, "B");
      ("gc.minor_collections_per_ktxn", per_k (loop c_minor), "count");
      ("gc.major_collections", loop c_major, "count");
    ]
  @ alloc
  @ [
      ("trace.coverage", Float.min (Span.coverage sp Span.txn) (Span.coverage sp Span.restart),
       "share");
      ("trace.overhead_share",
       ratio (Buf.median r.lat_traced_us) (Buf.median r.lat_us) -. 1.0, "share");
    ]

(* -- output --------------------------------------------------------------- *)

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
       ms)

(* Unscaled figures: medians of the raw samples, the raw loop rate and
   latency percentiles. *)
let raw_json r =
  String.concat ", "
    (List.map
       (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v))
       [
         ("txn_per_s", float_of_int r.loop_committed /. (r.loop_wall_ns.(1) /. 1e9));
         ("txn_p50_us", Buf.quantile r.lat_raw_us 0.5);
         ("txn_p99_us", Buf.quantile r.lat_raw_us 0.99);
         ("restart_first_commit_ms", Buf.median r.restart_first_ms);
         ("restart_resident_ms", Buf.median r.restart_resident_ms);
         ("setup_s", Buf.median r.setup_s);
         ("catchup_ms", Buf.median r.catchup_ms);
       ])

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "." and git_rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure at least this long");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes spans");
      ("--git-rev", Arg.Set_string git_rev, "REV source revision, recorded in the meta line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline
          ("unknown workload '" ^ !workload ^ "'; one of: "
          ^ String.concat ", " (List.map (fun s -> s.name) specs));
        exit 2
  in
  (* A 4M-word (32 MB) minor heap for every run.  With the runtime's
     default (256k words) minor collections land in ~0.2% of hot_update's
     5 us transactions, where their p99 sits, and p99 jumped between
     ~11 and ~21 us from run to run. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let traced = !trace = 1 in
  let zeros () = Array.make (Array.length counter_names) 0.0 in
  let r =
    {
      spec;
      sp = Span.create ~on:traced ~capacity:(1 lsl 19);
      quiet = Span.create ~on:false ~capacity:0;
      next_txn = 0;
      attempted = 0;
      failed = 0;
      loop_attempted = 0;
      loop_committed = 0;
      loop_wall_ns = [| 0.0; 0.0 |];
      speed = Speed.create ();
      win_ns = 0;
      win_start = 0;
      win_start_traced = 0;
      lat_raw_us = Buf.create ();
      lat_us = Buf.create ();
      lat_traced_us = Buf.create ();
      loop = zeros ();
      first = zeros ();
      first_ship_bytes = 0.0;
      first_commits = 0;
      session_commits = 0;
      session_ship_bytes = 0.0;
      session_loop = zeros ();
      session_sim = [];
      first_sim = [];
      loop_cuts = 0;
      setup_s = Buf.create ();
      restart_first_ms = Buf.create ();
      restart_resident_ms = Buf.create ();
      sim_first_ms = Buf.create ();
      sim_resident_ms = Buf.create ();
      recover_ms = Buf.create ();
      first_txn_ms = Buf.create ();
      restore_step_ms = Buf.create ();
      restart_deltas = [];
      sim_phase_ms = Array.of_list (List.map (fun _ -> Buf.create ()) Timeline.all_phases);
      catchup_ms = Buf.create ();
      cut_ms = Buf.create ();
      catchup_cut_ms = Buf.create ();
      promote_ms = Buf.create ();
      quiesce_sim_ms = Buf.create ();
      heap_peak_words = 0;
      ckpt_page_bytes = 0;
      traced_checkpoints = 0;
      ship_cuts = 0;
      ship_log_pages = 0;
      ship_ckpt_pages = 0;
      sessions = 0;
      boundaries = [];
      last_counters = [];
    }
  in
  let t0 = clock_ns () in
  let elapsed () = float_of_int (clock_ns () - t0) /. 1e9 in
  let correct =
    try
      while r.sessions < min_sessions || (elapsed () < !seconds && r.sessions < 100) do
        r.sessions <- r.sessions + 1;
        session r ~seed:!seed ~session:r.sessions
      done;
      true
    with Check_failed why ->
      prerr_endline ("check failed: " ^ why);
      false
  in
  let restarts = Buf.length r.restart_first_ms in
  Printf.printf
    "{\"meta\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"git_rev\": %S, \"nproc\": %d, \"ocaml\": %S, \"sessions\": %d, \
     \"measured_s\": %s, \"samples\": {\"txn_latency\": %d, \"txn_latency_traced\": %d, \
     \"restart_cycles\": %d, \"sim_restart_cycles\": %d, \"setup\": %d, \"catchup\": %d, \
     \"cuts\": %d, \"counted_txns\": %d}, \"spans_recorded\": %d, \"spans_dropped\": %d, \
     \"speed\": {\"kernel_samples\": %d, \"run_factor\": %s}, \"raw\": {%s}}}\n"
    spec.name !seed (json_num !seconds) !trace !git_rev
    (Domain.recommended_domain_count ()) Sys.ocaml_version r.sessions
    (json_num (elapsed ())) (Buf.length r.lat_us) (Buf.length r.lat_traced_us) restarts
    (Buf.length r.sim_first_ms) (Buf.length r.setup_s) (Buf.length r.catchup_ms)
    (Buf.length r.cut_ms) r.first_commits r.sp.Span.len (Span.dropped r.sp)
    (Speed.samples r.speed) (json_num (Speed.run_factor r.speed)) (raw_json r);
  if traced then begin
    let base = Filename.concat !out spec.name in
    Span.write r.sp (base ^ "-spans.tsv");
    let oc = open_out (base ^ "-counters.jsonl") in
    List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev r.boundaries);
    close_out oc
  end;
  let metrics = if traced then per_layer r else end_to_end r in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed (metrics_json metrics);
  exit (if correct then 0 else 1)

let () = main ()
