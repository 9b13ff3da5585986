open Mrdb_storage
open Db_state
module Sim = Mrdb_sim.Sim
module Cpu = Mrdb_sim.Cpu
module Trace = Mrdb_sim.Trace
module Stable_layout = Mrdb_wal.Stable_layout
module Slb = Mrdb_wal.Slb
module Slt = Mrdb_wal.Slt
module Log_disk = Mrdb_wal.Log_disk
module Lock_mgr = Mrdb_txn.Lock_mgr
module Txn_core = Mrdb_txn.Txn
module Ckpt_queue = Mrdb_ckpt.Ckpt_queue
module Recovery_env = Mrdb_recovery.Recovery_env
module Log_sorter = Mrdb_recovery.Log_sorter
module Restorer = Mrdb_recovery.Restorer
module Ckpt_mgr = Mrdb_recovery.Ckpt_mgr
module Recovery_mgr = Mrdb_recovery.Recovery_mgr
module Archive = Mrdb_archive.Archive

exception Aborted = Db_state.Aborted
exception Crashed = Db_state.Crashed
exception Unknown_relation = Db_state.Unknown_relation
exception Unknown_index = Db_state.Unknown_index

(* Replication role (§ warm standby).  A standby accepts shipped durable
   artifacts and local recovery, but refuses user transactions and DDL
   until promoted — the split-brain guard is this one flag. *)
type role = Primary | Standby

type t = {
  cfg : Config.t;
  sim : Sim.t;
  main_cpu : Cpu.t;
  recovery : Recovery_mgr.t;
  stable_mem : Mrdb_hw.Stable_mem.t;
  epoch : Mrdb_hw.Volatile.Epoch.t;
  mutable layout : Stable_layout.t;
  log_disk : Log_disk.t;
  mutable ckpt_disk : Mrdb_hw.Disk.t;
  archiver : Archive.t option; (* the tape survives crashes *)
  trace : Trace.t;
  obs : Mrdb_obs.Obs.t; (* survives crashes, like the trace *)
  mutable vol : vol option;
  mutable cached_ctx : Db_state.ctx option;
  mutable role : role;
}

type txn = Txn_core.t

let config t = t.cfg
let sim t = t.sim
let trace t = t.trace
let obs t = t.obs
let txn_id = Txn_core.id

let vol t = match t.vol with Some v -> v | None -> raise Crashed

let role t = t.role

let require_primary t what =
  match t.role with
  | Primary -> ()
  | Standby ->
      Mrdb_util.Fatal.misuse
        (Printf.sprintf "Db.%s: node is a standby (promote it first)" what)

(* The stable layout stripes the SLB one region per executor; the config's
   [stable.slb_regions] is overridden so callers only set [executors]. *)
let stable_config (cfg : Config.t) =
  { cfg.Config.stable with Stable_layout.slb_regions = cfg.Config.executors }

let quiesce t =
  Sim.run t.sim

(* The ctx record and its layout thunk are immutable views over [t], so
   one instance serves the whole lifetime — DML calls fetch it for free
   instead of building a record + closure each time. *)
let ctx t =
  match t.cached_ctx with
  | Some c -> c
  | None ->
      let c =
        {
          cfg = t.cfg;
          trace = t.trace;
          epoch = t.epoch;
          recovery = t.recovery;
          layout = (fun () -> t.layout);
          obs = t.obs;
        }
      in
      t.cached_ctx <- Some c;
      c

let recovery_env t =
  Recovery_env.create ~sim:t.sim ~trace:t.trace
    ~ckpt_disk:(fun () -> t.ckpt_disk)
    ~archiver:t.archiver ~partition_bytes:t.cfg.Config.partition_bytes
    ~obs:t.obs ()

(* -- transaction control -------------------------------------------------- *)

(* Begin-to-termination latency: elapsed simulated time (lock waits,
   on-demand restores and checkpoint work absorbed by the commit path)
   plus a modeled commit-path CPU charge — fixed begin/commit overhead and
   a per-log-record cost over the main CPU's MIPS rating (Table 2 flavor).
   The synchronous facade executes a transaction in zero simulated time
   unless it waits, which used to quantize every latency to 0 on the µs
   clock; the modeled term makes the histogram meaningful.  The simulated
   clock itself is NOT advanced, so the deterministic schedule and its
   elapsed-time goldens are untouched. *)
let txn_fixed_instr = 600.0
let txn_per_record_instr = 150.0

let observe_txn_latency t tx =
  let elapsed = Sim.now t.sim -. Txn_core.started_us tx in
  let modeled_us =
    (txn_fixed_instr
    +. (txn_per_record_instr *. float_of_int (Txn_core.redo_records tx)))
    /. t.cfg.Config.main_cpu_mips
  in
  let latency = elapsed +. modeled_us in
  Mrdb_obs.Metrics.observe_us (Mrdb_obs.Obs.txn_latency t.obs) latency;
  if t.cfg.Config.executors > 1 then
    Mrdb_obs.Metrics.observe_us
      (Mrdb_obs.Obs.txn_latency_exec t.obs ~exec:(Txn_core.executor tx))
      latency

let do_abort t v tx =
  Slb.Region.abort
    (Slb.region v.slb (Txn_core.executor tx))
    ~txn_id:(Txn_core.id tx);
  Txn_core.Manager.abort v.txn_mgr tx;
  ignore (Lock_mgr.release_all v.lock_mgr ~txn:(Txn_core.id tx));
  observe_txn_latency t tx;
  Trace.incr t.trace "aborts"

let acquire t v tx resource mode =
  match Lock_mgr.acquire v.lock_mgr ~txn:(Txn_core.id tx) resource mode with
  | Lock_mgr.Granted -> ()
  | Lock_mgr.Blocked ->
      do_abort t v tx;
      raise
        (Aborted
           (Format.asprintf "lock conflict on %a (synchronous facade aborts instead of waiting)"
              Lock_mgr.pp_resource resource))
  | Lock_mgr.Deadlock ->
      do_abort t v tx;
      raise (Aborted "deadlock victim")

(* -- DDL (delegated to the system-transaction layer) ----------------------- *)

let create_relation t ~name ~schema =
  require_primary t "create_relation";
  Db_system.create_relation (ctx t) (vol t) ~name ~schema

let create_index t ~rel ~name ~kind ~key_column =
  require_primary t "create_index";
  Db_system.create_index (ctx t) (vol t) ~rel ~name ~kind ~key_column

let drop_relation t ~name =
  require_primary t "drop_relation";
  Db_system.drop_relation (ctx t) (vol t) ~name

let relations t =
  let v = vol t in
  List.map (fun r -> r.Catalog.rel_name) (Catalog.relations v.cat)

let ensure_relation t name =
  let v = vol t in
  ensure_rel_resident (ctx t) v (rt_of (ctx t) v name)

(* -- checkpointing (delegated to the checkpoint manager) -------------------- *)

let ckpt_mgr t = Recovery_mgr.ckpt_mgr t.recovery

(* Flush the pending commit group (group-commit mode).  Checkpoints MUST
   go through this first: a precommitted transaction has released its
   locks while its REDO is still in volatile staging, so an image taken
   before the flush would durably capture effects whose commit record
   could still be lost in a crash — recovery would resurrect a
   transaction that never durably committed.  Kept free of checkpoint
   work itself so the checkpoint entry points can call it without
   mutual recursion (the public {!flush_group} adds the auto-checkpoint
   poll). *)
let flush_pending t v =
  if not (Queue.is_empty v.group) then begin
    v.group_epoch <- v.group_epoch + 1;
    let batch = Queue.length v.group in
    (* Pass 1: materialize every staged chain into block images, buffered
       per region, so each region's whole batch reaches stable memory in
       coalesced run writes — the group's REDO typically lands in one
       stable-memory write per region. *)
    Queue.iter
      (fun (tx, _) ->
        Slb.Region.materialize
          (Slb.region v.slb (Txn_core.executor tx))
          ~txn_id:(Txn_core.id tx))
      v.group;
    let writes = ref 0 in
    for i = 0 to Slb.regions v.slb - 1 do
      writes := !writes + Slb.Region.flush_batch (Slb.region v.slb i)
    done;
    (* Pass 2: ring entries in precommit order — the global commit_seq
       stream the drain merge reconstructs is exactly the order the
       transactions entered the group. *)
    while not (Queue.is_empty v.group) do
      let tx, enq = Queue.take v.group in
      Slb.Region.commit
        (Slb.region v.slb (Txn_core.executor tx))
        ~txn_id:(Txn_core.id tx);
      Txn_core.Manager.finalize_commit v.txn_mgr tx;
      observe_txn_latency t tx;
      Mrdb_obs.Metrics.observe_us
        (Mrdb_obs.Obs.group_commit_wait t.obs)
        (Sim.now t.sim -. enq);
      Trace.incr t.trace "commits";
      Trace.incr t.trace "group_commits"
    done;
    Db_system.drain (ctx t);
    Mrdb_obs.Metrics.observe (Mrdb_obs.Obs.group_batch t.obs) batch;
    Trace.incr t.trace "group_flushes";
    Trace.add t.trace "group_flush_writes" !writes
  end

let process_checkpoints t =
  let v = vol t in
  flush_pending t v;
  Ckpt_mgr.process (ckpt_mgr t)

let pending_checkpoints t = Ckpt_queue.pending (vol t).ckpt_q

let checkpoint_partition t part =
  let v = vol t in
  flush_pending t v;
  match Ckpt_mgr.run (ckpt_mgr t) part with
  | `Done -> ()
  | `Deferred -> raise (Aborted "checkpoint deferred: relation locked")

let checkpoint_all t =
  let v = vol t in
  List.iter (fun part -> checkpoint_partition t part) (Slt.active_partitions v.slt);
  ignore (process_checkpoints t)

(* -- commit/abort ----------------------------------------------------------- *)

let maybe_auto_checkpoint t =
  if t.cfg.Config.auto_checkpoint then ignore (process_checkpoints t)

let finish_commit t v tx =
  Slb.Region.commit
    (Slb.region v.slb (Txn_core.executor tx))
    ~txn_id:(Txn_core.id tx);
  Txn_core.Manager.commit v.txn_mgr tx;
  ignore (Lock_mgr.release_all v.lock_mgr ~txn:(Txn_core.id tx));
  Db_system.drain (ctx t);
  Trace.incr t.trace "commits"

let flush_group t =
  let v = vol t in
  flush_pending t v;
  maybe_auto_checkpoint t

let commit t tx =
  let v = vol t in
  match t.cfg.Config.commit_mode with
  | Config.Instant ->
      finish_commit t v tx;
      maybe_auto_checkpoint t;
      observe_txn_latency t tx
  | Config.Group { Config.batch_size; timeout_us } ->
      (* Precommit: locks released, staged REDO stays volatile awaiting
         the group's official commit. *)
      Txn_core.Manager.precommit v.txn_mgr tx;
      ignore (Lock_mgr.release_all v.lock_mgr ~txn:(Txn_core.id tx));
      Queue.add (tx, Sim.now t.sim) v.group;
      Trace.incr t.trace "precommits";
      if Queue.length v.group >= batch_size then flush_group t
      else if timeout_us > 0.0 && Queue.length v.group = 1 then begin
        (* Deadline for the batch the first waiter opens.  The guards make
           a stale event harmless: the epoch moves on every flush, and the
           volatile-state identity check covers crash + recovery (crash
           also clears the event queue outright). *)
        let epoch = v.group_epoch in
        Sim.schedule t.sim ~delay:timeout_us (fun () ->
            match t.vol with
            | Some v' when v' == v && v'.group_epoch = epoch
                           && not (Queue.is_empty v'.group) ->
                Trace.incr t.trace "group_timeout_flushes";
                flush_group t
            | Some _ | None -> ())
      end
  | Config.Disk_force ->
      finish_commit t v tx;
      (* Conventional WAL: force the log to disk and wait. *)
      Log_sorter.force_log (Recovery_mgr.sorter t.recovery);
      Trace.incr t.trace "log_forces";
      maybe_auto_checkpoint t;
      observe_txn_latency t tx

let begin_txn ?(declare = []) ?(executor = 0) t =
  require_primary t "begin_txn";
  let v = vol t in
  if executor < 0 || executor >= t.cfg.Config.executors then
    Mrdb_util.Fatal.misuse
      (Printf.sprintf "Db.begin_txn: executor %d out of range (executors = %d)"
         executor t.cfg.Config.executors);
  (match t.cfg.Config.recovery_mode with
  | Config.Predeclare | Config.On_demand | Config.Full_reload ->
      List.iter (fun name -> ensure_relation t name) declare);
  Txn_core.Manager.begin_txn ~executor v.txn_mgr

let abort t tx =
  let v = vol t in
  do_abort t v tx

let with_txn ?executor t f =
  let tx = begin_txn ?executor t in
  match f tx with
  | result ->
      commit t tx;
      result
  | exception e ->
      (match Txn_core.status tx with
      | Txn_core.Active -> abort t tx
      | Txn_core.Precommitted | Txn_core.Committed | Txn_core.Aborted -> ());
      raise e

(* -- DML -------------------------------------------------------------------- *)

(* The executor's staging arena, as an [?alloc] argument for the write
   paths: tuple images and before-images live in recycled buffers until
   the executor goes idle (see {!Mrdb_txn.Arena}). *)
let arena_alloc v tx =
  Mrdb_txn.Arena.alloc
    (Txn_core.Manager.arena v.txn_mgr ~executor:(Txn_core.executor tx))

let insert t tx ~rel tuple =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  if rt.desc.Catalog.indices <> [] then ensure_rel_resident (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.IX;
  let sink = Db_system.user_sink (ctx t) v tx in
  let addr = Relation.insert rt.relation ~alloc:(arena_alloc v tx) ~log:sink tuple in
  acquire t v tx (Lock_mgr.Entity addr) Lock_mgr.X;
  index_insert_all rt ~log:sink tuple addr;
  addr

let read t tx ~rel addr =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_partition (ctx t) (Addr.partition_of addr);
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.IS;
  acquire t v tx (Lock_mgr.Entity addr) Lock_mgr.S;
  Relation.read rt.relation addr

(* Shared tail of update/update_field once locks are held and the current
   entity bytes have been read ONCE (they serve as both the undo
   before-image and, decoded, the index-maintenance old keys — the write
   path reads and decodes an entity exactly once per update). *)
let update_resident t v tx rt addr ~old_data ~old_tuple tuple =
  let sink = Db_system.user_sink (ctx t) v tx in
  let addr' =
    Relation.update_given rt.relation ~alloc:(arena_alloc v tx) ~log:sink addr
      ~old_data tuple
  in
  (* Refresh index entries for changed keys (and for relocation). *)
  List.iter
    (fun ((idx : Catalog.index_desc), inst) ->
      let old_key = Tuple.field old_tuple idx.Catalog.key_column in
      let new_key = Tuple.field tuple idx.Catalog.key_column in
      if (not (Schema.equal_value old_key new_key)) || not (Addr.equal addr addr')
      then begin
        inst_delete inst ~log:sink old_key addr;
        inst_insert inst ~log:sink new_key addr'
      end)
    rt.index_insts;
  if not (Addr.equal addr addr') then
    acquire t v tx (Lock_mgr.Entity addr') Lock_mgr.X;
  addr'

let update t tx ~rel addr tuple =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_partition (ctx t) (Addr.partition_of addr);
  if rt.desc.Catalog.indices <> [] then ensure_rel_resident (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.IX;
  acquire t v tx (Lock_mgr.Entity addr) Lock_mgr.X;
  match
    Segment.read_entity_with (Relation.segment rt.relation) addr
      ~alloc:(arena_alloc v tx)
  with
  | None -> raise Not_found
  | Some old_data ->
      let old_tuple = Tuple.decode rt.desc.Catalog.schema old_data in
      update_resident t v tx rt addr ~old_data ~old_tuple tuple

let update_field t tx ~rel addr ~column value =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_partition (ctx t) (Addr.partition_of addr);
  let col =
    try Schema.column_index rt.desc.Catalog.schema column
    with Not_found -> Mrdb_util.Fatal.misuse ("Db.update_field: unknown column " ^ column)
  in
  if rt.desc.Catalog.indices <> [] then ensure_rel_resident (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.IX;
  acquire t v tx (Lock_mgr.Entity addr) Lock_mgr.X;
  match
    Segment.read_entity_with (Relation.segment rt.relation) addr
      ~alloc:(arena_alloc v tx)
  with
  | None -> raise Not_found
  | Some old_data ->
      let old_tuple = Tuple.decode rt.desc.Catalog.schema old_data in
      let tuple = Tuple.set_field rt.desc.Catalog.schema old_tuple col value in
      update_resident t v tx rt addr ~old_data ~old_tuple tuple

let delete t tx ~rel addr =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_partition (ctx t) (Addr.partition_of addr);
  if rt.desc.Catalog.indices <> [] then ensure_rel_resident (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.IX;
  acquire t v tx (Lock_mgr.Entity addr) Lock_mgr.X;
  let sink = Db_system.user_sink (ctx t) v tx in
  let old_tuple =
    Relation.delete rt.relation ~alloc:(arena_alloc v tx) ~log:sink addr
  in
  index_delete_all rt ~log:sink old_tuple addr

let lookup t tx ~rel ~index key =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_indices (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.IS;
  let _, inst = find_index rt index in
  let addrs =
    match inst with
    | Tt tree -> Mrdb_index.T_tree.lookup tree key
    | Lh h -> Mrdb_index.Linear_hash.lookup h key
  in
  List.map
    (fun addr ->
      ensure_partition (ctx t) (Addr.partition_of addr);
      acquire t v tx (Lock_mgr.Entity addr) Lock_mgr.S;
      match Relation.read rt.relation addr with
      | Some tuple -> (addr, tuple)
      | None -> Mrdb_util.Fatal.invariant ~mod_:"Db" "lookup: dangling index entry")
    addrs

let range t tx ~rel ~index ~lo ~hi =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_indices (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.S;
  match find_index rt index with
  | _, Tt tree -> Mrdb_index.T_tree.range tree ~lo ~hi
  | _, Lh _ -> Mrdb_util.Fatal.misuse "Db.range: hash indices do not support range scans"

let scan t tx ~rel =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_rel_resident (ctx t) v rt;
  acquire t v tx (Lock_mgr.Relation rt.desc.Catalog.rel_id) Lock_mgr.S;
  List.rev (Relation.fold (fun acc addr tuple -> (addr, tuple) :: acc) [] rt.relation)

let cardinality t ~rel =
  let v = vol t in
  let rt = rt_of (ctx t) v rel in
  ensure_segment (ctx t) rt.desc.Catalog.rel_segment;
  Relation.cardinality rt.relation

(* -- crash & recovery -------------------------------------------------------- *)

let is_crashed t = t.vol = None

let crash t =
  if t.vol <> None then begin
    Mrdb_hw.Crash.machine ~sim:t.sim
      ~duplexes:[ Log_disk.duplex t.log_disk ]
      ~disks:[ t.ckpt_disk ] ();
    Mrdb_hw.Volatile.Epoch.crash t.epoch;
    Recovery_mgr.detach t.recovery;
    t.vol <- None;
    Mrdb_obs.Flight_recorder.crash (Mrdb_obs.Obs.recorder t.obs);
    Trace.incr t.trace "crashes"
  end

(* Wire a fresh recovery component against new volatile state. *)
let attach_recovery t v =
  let deps =
    {
      Ckpt_mgr.log_redo =
        (fun ~txn part ~redo ~undo:_ ->
          Db_system.log_redo_raw (ctx t) v ~exec:(Txn_core.executor txn)
            ~txn_id:(Txn_core.id txn) part redo);
      drain = (fun () -> Db_system.drain (ctx t));
      layout = (fun () -> t.layout);
    }
  in
  Recovery_mgr.attach t.recovery ~env:(recovery_env t) ~deps ~log_disk:t.log_disk
    ~slb:v.slb ~slt:v.slt ~cat:v.cat ~seq:v.seq ~segments:v.segments
    ~txn_mgr:v.txn_mgr ~lock_mgr:v.lock_mgr ~disk_map:v.disk_map ~ckpt_q:v.ckpt_q

let resident_fraction t =
  ignore (vol t);
  Restorer.resident_fraction (restorer (ctx t))

let background_recovery_step t =
  ignore (vol t);
  Restorer.background_step (restorer (ctx t))

let recover_everything t =
  ignore (vol t);
  Restorer.sweep (restorer (ctx t))

let recover ?mode t =
  if t.vol <> None then Mrdb_util.Fatal.misuse "Db.recover: not crashed";
  let mode = Option.value mode ~default:t.cfg.Config.recovery_mode in
  let started = Sim.now t.sim in
  (* Re-attach the stable layout and rebuild the recovery component's
     stable-side structures; restore the catalogs from the well-known
     area. *)
  t.layout <- Stable_layout.attach (stable_config t.cfg) t.stable_mem;
  let ckpt_q = Ckpt_queue.create () in
  let slb, slt, cat_segment, catalog_seq =
    Recovery_mgr.restart ~env:(recovery_env t) ~layout:t.layout
      ~log_disk:t.log_disk ~n_update:t.cfg.Config.n_update
      ~age_grace_pages:t.cfg.Config.age_grace_pages ~ckpt_q
  in
  let cat = Catalog.decode_from_segment cat_segment in
  let v = mk_vol (ctx t) ~slb ~slt ~cat ~ckpt_q in
  Hashtbl.replace v.segments Catalog.catalog_segment_id cat_segment;
  (* Catalog partition sequence counters: watermark + replayed records. *)
  List.iter
    (fun (part, max_seq) -> Addr.Partition_table.replace v.seq part max_seq)
    catalog_seq;
  Recovery_mgr.finish_restart ~slt ~cat ~disk_map:v.disk_map;
  attach_recovery t v;
  t.vol <- Some v;
  Trace.incr t.trace "recoveries";
  Trace.record t.trace "catalog_recovery_us" (Sim.now t.sim -. started);
  match mode with
  | Config.Full_reload -> recover_everything t
  | Config.On_demand | Config.Predeclare -> ()

(* -- replication roles --------------------------------------------------------- *)

let demote_to_standby t =
  if t.vol <> None then
    Mrdb_util.Fatal.misuse "Db.demote_to_standby: crash the node first";
  t.role <- Standby

let promote ?mode t =
  (match t.role with
  | Primary -> Mrdb_util.Fatal.misuse "Db.promote: node is already the primary"
  | Standby -> ());
  let started = Sim.now t.sim in
  Mrdb_obs.Flight_recorder.phase (Mrdb_obs.Obs.recorder t.obs) "failover";
  (* A cold standby holds only shipped durable artifacts; promotion is the
     standard restart against them.  A warm standby (already recovered
     locally) just flips the role.  The role flips AFTER the recovery
     succeeds, so a promotion that dies mid-restart leaves the node a
     standby.  Note {!recover} resets the timeline, so the failover charge
     is added afterwards and survives. *)
  if t.vol = None then recover ?mode t;
  t.role <- Primary;
  Mrdb_obs.Timeline.add (Mrdb_obs.Obs.timeline t.obs) Mrdb_obs.Timeline.Failover
    ~dur_us:(Sim.now t.sim -. started);
  Trace.incr t.trace "promotions"

(* -- construction ------------------------------------------------------------- *)

let create ?(config = Config.default) () =
  Config.validate config;
  let sim = Sim.create () in
  let stable_mem =
    Mrdb_hw.Stable_mem.create
      ~size:(Stable_layout.required_bytes (stable_config config))
      ()
  in
  let layout = Stable_layout.attach (stable_config config) stable_mem in
  let trace = Trace.create () in
  let obs = Mrdb_obs.Obs.create ~now:(fun () -> Sim.now sim) () in
  Mrdb_obs.Metrics.attach_trace (Mrdb_obs.Obs.metrics obs) trace;
  let log_disk =
    (* The Db trace doubles as the duplex's resilience-counter sink, so
       degraded writes / read fallbacks show up next to the Db counters. *)
    Log_disk.create sim ~layout ~trace ~window_pages:config.Config.log_window_pages ()
  in
  let page_bytes = config.Config.stable.Stable_layout.log_page_bytes in
  let ckpt_disk =
    Mrdb_hw.Disk.create ~name:"ckptdisk" sim
      ~params:(Mrdb_hw.Disk.default_ckpt_params ~page_bytes)
      ~capacity_pages:config.Config.ckpt_disk_pages
  in
  let archiver =
    if config.Config.archive then begin
      let a = Archive.create () in
      Log_disk.set_tap log_disk (fun ~lsn image -> Archive.on_log_page a ~lsn image);
      Some a
    end
    else None
  in
  let t =
    {
      cfg = config;
      sim;
      main_cpu = Cpu.create ~name:"main" sim ~mips:config.Config.main_cpu_mips;
      recovery = Recovery_mgr.create ~sim ~mips:config.Config.recovery_cpu_mips;
      stable_mem;
      epoch = Mrdb_hw.Volatile.Epoch.create ();
      layout;
      log_disk;
      ckpt_disk;
      archiver;
      trace;
      obs;
      vol = None;
      cached_ctx = None;
      role = Primary;
    }
  in
  let slb = Slb.create layout in
  let ckpt_q = Ckpt_queue.create () in
  let slt =
    Slt.create ~layout ~log_disk ~n_update:config.Config.n_update
      ?age_grace_pages:config.Config.age_grace_pages
      ~on_checkpoint_request:
        (Ckpt_mgr.on_checkpoint_request ~trace:t.trace ~ckpt_q:(fun () -> ckpt_q)
           ~recorder:(Mrdb_obs.Obs.recorder obs))
      ()
  in
  Slb.set_recorder slb (Some (Mrdb_obs.Obs.recorder obs));
  Slt.set_recorder slt (Some (Mrdb_obs.Obs.recorder obs));
  (* Bootstrap the catalog, buffering its physical ops so they can be
     logged once the volatile plumbing exists. *)
  let buffered = ref [] in
  let boot_sink part ~redo ~undo:_ = buffered := (part, redo) :: !buffered in
  let cat = Catalog.create ~partition_bytes:config.Config.partition_bytes ~log:boot_sink in
  let v = mk_vol (ctx t) ~slb ~slt ~cat ~ckpt_q in
  Hashtbl.replace v.segments Catalog.catalog_segment_id (Catalog.segment cat);
  attach_recovery t v;
  t.vol <- Some v;
  (* Log the buffered bootstrap ops under one system transaction. *)
  let tx = Txn_core.Manager.begin_txn v.txn_mgr in
  List.iter
    (fun (part, redo) -> Db_system.log_redo_raw (ctx t) v ~txn_id:(Txn_core.id tx) part redo)
    (List.rev !buffered);
  Slb.Region.commit (Slb.region v.slb 0) ~txn_id:(Txn_core.id tx);
  Txn_core.Manager.commit v.txn_mgr tx;
  Db_system.drain (ctx t);
  Db_system.update_wellknown (ctx t) v;
  t

(* -- introspection ------------------------------------------------------------- *)

let main_cpu t = t.main_cpu
let recovery_cpu t = Recovery_mgr.cpu t.recovery
let slt t = (vol t).slt
let slb t = (vol t).slb
let log_disk t = t.log_disk
let ckpt_disk t = t.ckpt_disk
let stable_mem t = t.stable_mem
let catalog t = (vol t).cat
let archiver t = t.archiver

(* Media failure of the checkpoint disk: every image is gone; a fresh
   (blank) replacement drive takes its place.  The archive keeps recovery
   possible; the catalog's locations become stale pointers into the blank
   drive, which the restorer's image read detects and routes to the tape. *)
let fail_checkpoint_disk t =
  t.ckpt_disk <-
    Mrdb_hw.Disk.create ~name:"ckptdisk-replacement" t.sim
      ~params:(Mrdb_hw.Disk.params t.ckpt_disk)
      ~capacity_pages:(Mrdb_hw.Disk.capacity_pages t.ckpt_disk);
  Trace.incr t.trace "ckpt_disk_failures"

(* -- replication introspection (shipping side reads, all untimed) ------------- *)

let commit_seq t = Stable_layout.commit_seq t.layout

let partition_snapshot t (part : Addr.partition) =
  match t.vol with
  | None -> None
  | Some v -> (
      match Hashtbl.find_opt v.segments part.Addr.segment with
      | None -> None
      | Some seg -> (
          match Segment.find seg part.Addr.partition with
          | None -> None
          | Some p -> Some (Partition.snapshot p)))

let checkpoint_location t part =
  let v = vol t in
  match Catalog.partition_desc v.cat part with
  | None -> None
  | Some d ->
      if d.Catalog.ckpt_page < 0 then None
      else Some (d.Catalog.ckpt_page, d.Catalog.ckpt_page_count)

let all_partitions t =
  let v = vol t in
  Catalog.fold_relations
    (fun r acc ->
      List.fold_left
        (fun acc (d : Catalog.partition_desc) -> d.Catalog.part :: acc)
        acc r.Catalog.partitions)
    v.cat []
  |> List.sort Addr.compare_partition

let partition_of_addr t ~rel addr =
  ignore t;
  ignore rel;
  Addr.partition_of addr

let relation_partitions t ~rel =
  let v = vol t in
  match Catalog.find_relation v.cat rel with
  | None -> raise (Unknown_relation rel)
  | Some desc ->
      List.filter_map
        (fun (d : Catalog.partition_desc) ->
          if d.Catalog.part.Addr.segment = desc.Catalog.rel_segment then
            Some d.Catalog.part
          else None)
        desc.Catalog.partitions
