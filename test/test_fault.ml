(* Tests for the fault-injection subsystem and the degraded-mode
   resilience it exercises: deterministic fault plans, the injector's
   device hooks and timed events, checksum-verified duplex fallback at the
   log-disk level, torn-tail discard during SLT recovery, and whole-Db
   mirror failover under load (including resilver back to full
   redundancy). *)

open Mrdb_storage
open Mrdb_wal
open Mrdb_core
module Sim = Mrdb_sim.Sim
module Trace = Mrdb_sim.Trace
module Disk = Mrdb_hw.Disk
module Duplex = Mrdb_hw.Duplex
module Stable_mem = Mrdb_hw.Stable_mem
module Crash = Mrdb_hw.Crash
module Fault_plan = Mrdb_fault.Fault_plan
module Injector = Mrdb_fault.Injector

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let i64_t = Alcotest.int64

let part_a : Addr.partition = { Addr.segment = 1; partition = 0 }

let small_config =
  {
    Stable_layout.slb_regions = 1;
    slb_block_bytes = 256;
    slb_block_count = 64;
    committed_capacity = 32;
    log_page_bytes = 512;
    page_pool_count = 16;
    bin_count = 16;
    dir_size = 3;
    wellknown_bytes = 512;
  }

(* -- Fault_plan -------------------------------------------------------------- *)

let mk_plan ?executors ?nodes seed =
  Fault_plan.random ?executors ?nodes ~seed ~horizon_us:1_000_000.0 ~window_pages:8
    ~ckpt_pages:64 ()

let test_plan_determinism () =
  let show p = Format.asprintf "%a" Fault_plan.pp p in
  let p1 = mk_plan 42 in
  check Alcotest.string "same seed, same plan" (show p1) (show (mk_plan 42));
  check bool_t "some other seed yields a different plan" true
    (List.exists (fun s -> show (mk_plan s) <> show p1) [ 1; 2; 3; 4; 5 ]);
  check bool_t "seed recorded for replay" true (Fault_plan.seed p1 = Some 42);
  check bool_t "scripted plans carry no seed" true
    (Fault_plan.seed (Fault_plan.scripted []) = None)

let test_plan_single_failure_domain () =
  (* Every random plan confines log corruption / failure / torn writes to
     ONE side, so the other mirror always holds an intact copy. *)
  let open Fault_plan in
  for seed = 0 to 63 do
    let victims =
      List.filter_map
        (function
          | Corrupt_page { target = (Log_primary | Log_mirror) as t; _ } -> Some t
          | Torn_write { target = (Log_primary | Log_mirror) as t; _ } -> Some t
          | Fail_side { side = Primary; _ } -> Some Log_primary
          | Fail_side { side = Mirror; _ } -> Some Log_mirror
          | _ -> None)
        (events (mk_plan seed))
    in
    match victims with
    | [] -> ()
    | t :: rest ->
        check bool_t
          (Printf.sprintf "seed %d keeps one victim side" seed)
          true
          (List.for_all (fun u -> u = t) rest)
  done

let test_plan_executor_faults () =
  let open Fault_plan in
  let show p = Format.asprintf "%a" Fault_plan.pp p in
  let is_exec_fault = function Fail_executor _ -> true | _ -> false in
  for seed = 0 to 63 do
    (* executors=1 plans never fail the only executor, and the option is
       drawn last, so the rest of the plan is byte-identical with or
       without it — seed replays from before the feature stay valid. *)
    check Alcotest.string
      (Printf.sprintf "seed %d: executors:1 leaves the plan unchanged" seed)
      (show (mk_plan seed))
      (show (mk_plan ~executors:1 seed));
    check bool_t "no executor faults at executors=1" false
      (List.exists is_exec_fault (events (mk_plan ~executors:1 seed)));
    let p4 = mk_plan ~executors:4 seed in
    let others e = List.filter (fun x -> not (is_exec_fault x)) e in
    check bool_t
      (Printf.sprintf "seed %d: executor draws only append events" seed)
      true
      (others (events p4) = events (mk_plan seed));
    List.iter
      (function
        | Fail_executor { executor; _ } ->
            check bool_t "victim executor in range" true
              (executor >= 0 && executor < 4)
        | _ -> ())
      (events p4)
  done;
  (* Deterministic: across a seed range, some plan fails an executor. *)
  check bool_t "some plan carries an executor fault" true
    (List.exists
       (fun seed -> List.exists is_exec_fault (events (mk_plan ~executors:4 seed)))
       (List.init 64 Fun.id))

let test_plan_node_faults () =
  let open Fault_plan in
  let show p = Format.asprintf "%a" Fault_plan.pp p in
  let is_node_event = function
    | Fail_node _ | Resume_node _ | Partition_link _ -> true
    | _ -> false
  in
  for seed = 0 to 63 do
    (* Node draws happen last (after the executor draws), so plans without
       the option are byte-identical — replication campaigns do not
       perturb single-node seed replays. *)
    check Alcotest.string
      (Printf.sprintf "seed %d: nodes:false leaves the plan unchanged" seed)
      (show (mk_plan seed))
      (show (mk_plan ~nodes:false seed));
    let pn = mk_plan ~nodes:true seed in
    let others e = List.filter (fun x -> not (is_node_event x)) e in
    check bool_t
      (Printf.sprintf "seed %d: node draws only append events" seed)
      true
      (others (events pn) = events (mk_plan seed));
    (* Node draws compose with executor draws, appended after them. *)
    let pboth = mk_plan ~executors:4 ~nodes:true seed in
    check bool_t
      (Printf.sprintf "seed %d: node draws append after executor draws" seed)
      true
      (others (events pboth) = events (mk_plan ~executors:4 seed));
    check Alcotest.string
      (Printf.sprintf "seed %d: executors+nodes plan replays identically" seed)
      (show pboth)
      (show (mk_plan ~executors:4 ~nodes:true seed));
    (* The node failure domain: a random plan never crashes both nodes,
       so a replication campaign always has a survivor to interrogate. *)
    check bool_t
      (Printf.sprintf "seed %d: single victim node" seed)
      true (node_fault_domain_ok pn);
    let victims =
      List.filter_map
        (function Fail_node { node; _ } -> Some node | _ -> None)
        (events pn)
    in
    (match victims with
    | [] -> ()
    | n :: rest ->
        check bool_t
          (Printf.sprintf "seed %d: every Fail_node names the same victim" seed)
          true
          (List.for_all (fun m -> m = n) rest));
    (* Every Fail_node is paired with a Resume_node of the same victim
       drawn after it. *)
    List.iter
      (function
        | Fail_node { node; at_us } ->
            check bool_t "fail has a later resume" true
              (List.exists
                 (function
                   | Resume_node { node = n; at_us = r } -> n = node && r > at_us
                   | _ -> false)
                 (events pn))
        | Partition_link { heal_us; at_us; _ } ->
            check bool_t "link heals after it degrades" true (heal_us > at_us)
        | _ -> ())
      (events pn)
  done;
  (* Deterministic: across a seed range, node and link events both occur. *)
  let any_event f =
    List.exists
      (fun seed -> List.exists f (events (mk_plan ~nodes:true seed)))
      (List.init 64 Fun.id)
  in
  check bool_t "some plan crashes a node" true
    (any_event (function Fail_node _ -> true | _ -> false));
  check bool_t "some plan degrades the link" true
    (any_event (function Partition_link _ -> true | _ -> false));
  (* Scripted plans can violate the domain; the predicate must say so. *)
  check bool_t "scripted double-victim flagged" false
    (node_fault_domain_ok
       (scripted
          [
            Fail_node { node = Primary_node; at_us = 1.0 };
            Fail_node { node = Standby_node; at_us = 2.0 };
          ]))

(* -- Injector against a bare duplex ------------------------------------------ *)

let mk_duplex () =
  let sim = Sim.create () in
  let trace = Trace.create () in
  let dup =
    Duplex.create ~trace sim
      ~params:(Disk.default_log_params ~page_bytes:512)
      ~capacity_pages:16
  in
  (sim, trace, dup)

let write_ok sim dup ~page img =
  let done_ = ref false in
  Duplex.write_page dup ~page img (fun () -> done_ := true);
  Sim.run sim;
  Alcotest.(check bool) "write completed" true !done_

let test_injected_transient_read_retried () =
  let sim, trace, dup = mk_duplex () in
  let img = Bytes.make 512 'x' in
  write_ok sim dup ~page:0 img;
  let plan =
    Fault_plan.scripted
      [ Fault_plan.Transient_read { target = Fault_plan.Log_primary; at_read = 1 } ]
  in
  let inj = Injector.install ~plan ~sim ~trace ~log:dup () in
  let result = ref None in
  Duplex.read_page dup ~page:0 (fun r -> result := Some r);
  Sim.run sim;
  (match !result with
  | Some (Ok b) -> check bool_t "data intact after retry" true (Bytes.equal b img)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result");
  check int_t "one retry" 1 (Trace.count trace "duplex_read_retries");
  check int_t "injection counted" 1 (Trace.count trace "fault_transient_reads_injected");
  check int_t "one event fired" 1 (Injector.fired_count inj)

let test_injected_latent_corruption_falls_back () =
  let sim, trace, dup = mk_duplex () in
  let img = Bytes.make 512 'y' in
  write_ok sim dup ~page:2 img;
  let plan =
    Fault_plan.scripted
      [
        Fault_plan.Corrupt_page
          { target = Fault_plan.Log_primary; page = 2; at_us = 50_000.0 };
      ]
  in
  let inj = Injector.install ~plan ~sim ~trace ~log:dup () in
  Sim.run sim;
  check int_t "timed corruption fired" 1 (Injector.fired_count inj);
  check int_t "counted" 1 (Trace.count trace "fault_pages_corrupted");
  let result = ref None in
  Duplex.read_page dup ~page:2 ~verify:(fun b -> Bytes.equal b img) (fun r ->
      result := Some r);
  Sim.run sim;
  (match !result with
  | Some (Ok b) -> check bool_t "mirror copy served" true (Bytes.equal b img)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result");
  check int_t "checksum failure detected" 1
    (Trace.count trace "duplex_read_checksum_failures");
  check int_t "fallback taken" 1 (Trace.count trace "duplex_read_fallbacks")

let test_arm_reschedules_after_crash () =
  (* A crash clears the simulated event queue, discarding pending timed
     faults; [arm] must re-schedule them, and only them. *)
  let sim, trace, dup = mk_duplex () in
  let plan =
    Fault_plan.scripted
      [ Fault_plan.Fail_side { side = Fault_plan.Mirror; at_us = 1_000.0 } ]
  in
  let inj = Injector.install ~plan ~sim ~trace ~log:dup () in
  Crash.machine ~sim ~duplexes:[ dup ] ();
  Sim.run sim;
  check int_t "event discarded with the crash" 0 (Injector.fired_count inj);
  check bool_t "still healthy" true (Duplex.state dup = `Healthy);
  Injector.arm inj;
  Sim.run sim;
  check int_t "re-armed event fired" 1 (Injector.fired_count inj);
  check bool_t "mirror failed" true (Duplex.state dup = `Degraded);
  check int_t "counted" 1 (Trace.count trace "fault_mirror_failures_injected");
  (* Arming again must not double-fire the spent event. *)
  Injector.arm inj;
  Sim.run sim;
  check int_t "no double fire" 1 (Trace.count trace "fault_mirror_failures_injected")

(* -- Log_disk: checksum-verified duplex reads -------------------------------- *)

let mk_log_disk ?(window = 8) () =
  let sim = Sim.create () in
  let mem =
    Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes small_config) ()
  in
  let layout = Stable_layout.attach small_config mem in
  let trace = Trace.create () in
  let ld = Log_disk.create sim ~layout ~trace ~window_pages:window () in
  (sim, mem, trace, ld)

let mk_record ?(txn = 1) ?(seq = 1) () =
  Log_record.make ~tag:Log_record.Relation_op ~bin_index:0 ~txn_id:txn ~seq
    ~op:(Part_op.Insert { slot = 0; data = Bytes.make 16 'r' })

let page_records = List.init 3 (fun i -> mk_record ~seq:(i + 1) ())

let page_image ~lsn =
  Frames.page ~page_bytes:512 ~dir_size:3 ~lsn ~part:part_a
    ~prev_lsn:(Int64.pred lsn) ~dir:[| 10L; 11L; 12L |] page_records

let slot_of ld lsn =
  Int64.to_int (Int64.rem lsn (Int64.of_int (Log_disk.window_pages ld)))

let test_log_disk_one_corrupt_copy_invisible () =
  let sim, _mem, trace, ld = mk_log_disk () in
  let lsn = Log_disk.alloc_lsn ld in
  let done_ = ref false in
  Log_disk.write_page ld ~lsn (page_image ~lsn) (fun () -> done_ := true);
  Sim.run sim;
  check bool_t "written" true !done_;
  Disk.corrupt_page
    (Duplex.primary (Log_disk.duplex ld))
    ~page:(slot_of ld lsn) ~at:32 ~len:8;
  let result = ref None in
  Log_disk.read_page ld ~lsn (fun r -> result := Some r);
  Sim.run sim;
  (match !result with
  | Some (Ok (header, chunk)) ->
      check i64_t "right page" lsn header.Log_page.lsn;
      Frames.check "frames intact" page_records (Frames.of_chunks [ chunk ])
  | Some (Error e) -> Alcotest.fail (Log_disk.read_error_to_string e)
  | None -> Alcotest.fail "no result");
  check bool_t "checksum failure counted" true
    (Trace.count trace "duplex_read_checksum_failures" >= 1);
  check bool_t "fallback counted" true
    (Trace.count trace "duplex_read_fallbacks" >= 1)

let test_log_disk_both_copies_corrupt_is_unreadable () =
  let sim, _mem, _trace, ld = mk_log_disk () in
  let lsn = Log_disk.alloc_lsn ld in
  Log_disk.write_page ld ~lsn (page_image ~lsn) (fun () -> ());
  Sim.run sim;
  let slot = slot_of ld lsn in
  Disk.corrupt_page (Duplex.primary (Log_disk.duplex ld)) ~page:slot ~at:32 ~len:8;
  Disk.corrupt_page (Duplex.mirror (Log_disk.duplex ld)) ~page:slot ~at:32 ~len:8;
  let result = ref None in
  Log_disk.read_page ld ~lsn (fun r -> result := Some r);
  Sim.run sim;
  match !result with
  | Some (Error (Log_disk.Unreadable { lsn = l; _ })) -> check i64_t "names the lsn" lsn l
  | Some (Error e) ->
      Alcotest.failf "wrong error class: %s" (Log_disk.read_error_to_string e)
  | Some (Ok _) -> Alcotest.fail "doubly-corrupt page read back Ok"
  | None -> Alcotest.fail "no result"

(* -- SLT: torn tail page discarded at recovery ------------------------------- *)

let test_torn_tail_page_discarded () =
  let cfg = small_config in
  let sim = Sim.create () in
  let mem = Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  let layout = Stable_layout.attach cfg mem in
  let trace = Trace.create () in
  let ld = Log_disk.create sim ~layout ~trace ~window_pages:8 () in
  let slt =
    Slt.create ~layout ~log_disk:ld ~n_update:1_000_000
      ~on_checkpoint_request:(fun _ _ -> ())
      ()
  in
  let record ~txn ~seq =
    Log_record.make ~tag:Log_record.Relation_op
      ~bin_index:(Slt.bin_index_of slt part_a) ~txn_id:txn ~seq
      ~op:(Part_op.Insert { slot = 0; data = Bytes.make 16 'd' })
  in
  let accept ~txn ~seq = Frames.accept slt (record ~txn ~seq) in
  (* These five records end up on the soon-to-be-torn tail page. *)
  for i = 1 to 5 do
    accept ~txn:1 ~seq:i
  done;
  let tail = Log_disk.next_lsn ld in
  Slt.flush_partition slt part_a;
  Sim.run sim;
  (* These stay buffered in the stable bin and must survive. *)
  for i = 6 to 8 do
    accept ~txn:2 ~seq:i
  done;
  Crash.machine ~sim ~duplexes:[ Log_disk.duplex ld ] ();
  (* Worst case: the crash tore the tail page on BOTH copies (the stable
     in-flight image is long gone — the write had completed). *)
  let slot = slot_of ld tail in
  Disk.corrupt_page (Duplex.primary (Log_disk.duplex ld)) ~page:slot ~at:16 ~len:8;
  Disk.corrupt_page (Duplex.mirror (Log_disk.duplex ld)) ~page:slot ~at:16 ~len:8;
  let layout' = Stable_layout.attach cfg mem in
  let slt' =
    Slt.recover ~layout:layout' ~log_disk:ld ~n_update:1_000_000
      ~on_checkpoint_request:(fun _ _ -> ())
      ()
  in
  Frames.check "tail page dropped as torn; buffered records survive"
    (List.map (fun seq -> record ~txn:2 ~seq) [ 6; 7; 8 ])
    (Frames.recovered ~sim slt' part_a);
  check int_t "discard observable in the trace" 1
    (Trace.count trace "restorer_torn_tail_discarded")

let test_torn_middle_page_still_fails () =
  (* Same setup but the bad page is NOT the chain tail: that is real media
     loss, not a torn tail, and recovery must refuse to silently drop it. *)
  let cfg = small_config in
  let sim = Sim.create () in
  let mem = Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  let layout = Stable_layout.attach cfg mem in
  let ld = Log_disk.create sim ~layout ~window_pages:8 () in
  let slt =
    Slt.create ~layout ~log_disk:ld ~n_update:1_000_000
      ~on_checkpoint_request:(fun _ _ -> ())
      ()
  in
  let accept ~seq =
    Frames.accept slt
      (Log_record.make ~tag:Log_record.Relation_op
         ~bin_index:(Slt.bin_index_of slt part_a) ~txn_id:1 ~seq
         ~op:(Part_op.Insert { slot = 0; data = Bytes.make 16 'd' }))
  in
  let first = Log_disk.next_lsn ld in
  for i = 1 to 5 do
    accept ~seq:i
  done;
  Slt.flush_partition slt part_a;
  Sim.run sim;
  for i = 6 to 10 do
    accept ~seq:i
  done;
  Slt.flush_partition slt part_a;
  Sim.run sim;
  Crash.machine ~sim ~duplexes:[ Log_disk.duplex ld ] ();
  (* Corrupt the FIRST page (both copies): it has a successor, so the
     torn-tail waiver must not apply. *)
  let slot = slot_of ld first in
  Disk.corrupt_page (Duplex.primary (Log_disk.duplex ld)) ~page:slot ~at:16 ~len:8;
  Disk.corrupt_page (Duplex.mirror (Log_disk.duplex ld)) ~page:slot ~at:16 ~len:8;
  let layout' = Stable_layout.attach cfg mem in
  let slt' =
    Slt.recover ~layout:layout' ~log_disk:ld ~n_update:1_000_000
      ~on_checkpoint_request:(fun _ _ -> ())
      ()
  in
  let result = ref None in
  Slt.records_for_recovery slt' part_a (fun r -> result := Some r);
  Sim.run sim;
  match !result with
  | Some (Error _) -> ()
  | Some (Ok chunks) ->
      Alcotest.failf "mid-chain loss silently dropped: recovered %d records"
        (List.length (Frames.of_chunks chunks))
  | None -> Alcotest.fail "no result"

(* -- Whole-Db resilience ----------------------------------------------------- *)

let schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

let insert_key db i =
  Db.with_txn db (fun tx ->
      ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.int i |]))

let observed_keys db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"t"
      |> List.map (fun (_, tup) -> Schema.to_int (Tuple.field tup 0))
      |> List.sort compare)

let test_both_mirrors_failed_surfaces () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let dup = Log_disk.duplex (Db.log_disk db) in
  Duplex.fail_primary dup;
  Duplex.fail_mirror dup;
  check bool_t "pair failed" true (Duplex.state dup = `Failed);
  let raised = ref false in
  (try
     for i = 1 to 200 do
       insert_key db i
     done;
     Db.quiesce db
   with Duplex.Both_mirrors_failed _ -> raised := true);
  check bool_t "Both_mirrors_failed raised at the first page write" true !raised

let test_mirror_failover_under_load () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  for i = 1 to 20 do
    insert_key db i
  done;
  (* Lose the primary mid-run, writes outstanding — no quiesce. *)
  let dup = Log_disk.duplex (Db.log_disk db) in
  Duplex.fail_primary dup;
  for i = 21 to 40 do
    insert_key db i
  done;
  (* Checkpointing seals partial log pages: guaranteed degraded writes. *)
  Db.checkpoint_all db;
  ignore (Db.process_checkpoints db);
  Db.quiesce db;
  check bool_t "pair degraded" true (Duplex.state dup = `Degraded);
  check bool_t "degraded writes counted" true
    (Trace.count (Db.trace db) "duplex_degraded_writes" > 0);
  Db.crash db;
  Db.recover db;
  check (Alcotest.list int_t) "committed state survives failover + crash"
    (List.init 40 (fun i -> i + 1))
    (observed_keys db);
  check bool_t "still degraded after recovery" true (Duplex.state dup = `Degraded);
  (* Resilver a replacement primary back to full redundancy. *)
  let healthy = ref false in
  Duplex.rebuild dup `Primary (fun () -> healthy := true);
  Db.quiesce db;
  check bool_t "rebuild completed" true !healthy;
  check bool_t "healthy again" true (Duplex.state dup = `Healthy);
  check int_t "one rebuild" 1 (Trace.count (Db.trace db) "duplex_rebuilds");
  (* And the database still works at full tilt. *)
  insert_key db 41;
  check int_t "post-rebuild traffic" 41 (List.length (observed_keys db))

let test_wellknown_survives_single_copy_rot () =
  (* The well-known area keeps two CRC'd copies of the catalog partition
     list; injected rot in one copy must be invisible to recovery. *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  for i = 1 to 10 do
    insert_key db i
  done;
  Db.quiesce db;
  let layout = Slt.layout (Db.slt db) in
  let off = Stable_layout.wellknown_off layout in
  let wk_bytes = (Stable_layout.config layout).Stable_layout.wellknown_bytes in
  let plan =
    Fault_plan.scripted
      [
        Fault_plan.Corrupt_stable
          { off = off + 8; len = wk_bytes / 4; at_us = 0.0 };
      ]
  in
  let inj =
    Injector.install ~plan ~sim:(Db.sim db) ~trace:(Db.trace db)
      ~log:(Log_disk.duplex (Db.log_disk db))
      ~stable:(Db.stable_mem db) ()
  in
  Sim.run (Db.sim db);
  check int_t "rot injected" 1 (Injector.fired_count inj);
  check int_t "counted" 1
    (Trace.count (Db.trace db) "fault_stable_corruptions_injected");
  Db.crash db;
  Db.recover db;
  check (Alcotest.list int_t) "catalog restored from the redundant copy"
    (List.init 10 (fun i -> i + 1))
    (observed_keys db)

let () =
  Alcotest.run "mrdb_fault"
    [
      ( "plans",
        [
          Alcotest.test_case "seeded plans replay identically" `Quick
            test_plan_determinism;
          Alcotest.test_case "executor faults gated and appended last" `Quick
            test_plan_executor_faults;
          Alcotest.test_case "node faults appended last, one victim node" `Quick
            test_plan_node_faults;
          Alcotest.test_case "random plans keep one failure domain" `Quick
            test_plan_single_failure_domain;
        ] );
      ( "injector",
        [
          Alcotest.test_case "transient read error survives via retry" `Quick
            test_injected_transient_read_retried;
          Alcotest.test_case "latent corruption detected, mirror serves" `Quick
            test_injected_latent_corruption_falls_back;
          Alcotest.test_case "arm re-schedules timed faults after a crash" `Quick
            test_arm_reschedules_after_crash;
        ] );
      ( "log disk",
        [
          Alcotest.test_case "one corrupt copy is invisible" `Quick
            test_log_disk_one_corrupt_copy_invisible;
          Alcotest.test_case "both copies corrupt surfaces Unreadable" `Quick
            test_log_disk_both_copies_corrupt_is_unreadable;
        ] );
      ( "slt",
        [
          Alcotest.test_case "torn tail page discarded at recovery" `Quick
            test_torn_tail_page_discarded;
          Alcotest.test_case "mid-chain loss still fails loudly" `Quick
            test_torn_middle_page_still_fails;
        ] );
      ( "db",
        [
          Alcotest.test_case "both mirrors failed raises cleanly" `Quick
            test_both_mirrors_failed_surfaces;
          Alcotest.test_case "mirror failover under load + resilver" `Quick
            test_mirror_failover_under_load;
          Alcotest.test_case "well-known area survives single-copy rot" `Quick
            test_wellknown_survives_single_copy_rot;
        ] );
    ]
