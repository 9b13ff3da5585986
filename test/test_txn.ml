(* Tests for the transaction layer: hierarchical 2PL with deadlock
   detection, the volatile UNDO space, and transaction lifecycle/abort. *)

open Mrdb_storage
open Mrdb_txn

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- Lock manager ------------------------------------------------------------- *)

let rel r = Lock_mgr.Relation r
let ent i = Lock_mgr.Entity (Addr.make ~segment:1 ~partition:0 ~slot:i)

let outcome_t =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Lock_mgr.Granted -> "granted"
        | Lock_mgr.Blocked -> "blocked"
        | Lock_mgr.Deadlock -> "deadlock"))
    ( = )

let test_compat_matrix () =
  let open Lock_mgr in
  (* Spot-check the standard matrix. *)
  check bool_t "IS/X" false (compatible IS X);
  check bool_t "IS/SIX" true (compatible IS SIX);
  check bool_t "IX/IX" true (compatible IX IX);
  check bool_t "IX/S" false (compatible IX S);
  check bool_t "S/S" true (compatible S S);
  check bool_t "SIX/IS" true (compatible SIX IS);
  check bool_t "SIX/SIX" false (compatible SIX SIX);
  check bool_t "X/X" false (compatible X X);
  (* Symmetry. *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> check bool_t "symmetric" (compatible a b) (compatible b a))
        [ IS; IX; S; SIX; X ])
    [ IS; IX; S; SIX; X ]

let test_supremum () =
  let open Lock_mgr in
  check bool_t "IX+S=SIX" true (supremum IX S = SIX);
  check bool_t "IS+X=X" true (supremum IS X = X);
  check bool_t "S+S=S" true (supremum S S = S)

let test_basic_grant_conflict () =
  let lm = Lock_mgr.create () in
  check outcome_t "t1 X" Lock_mgr.Granted (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  check outcome_t "t2 S blocked" Lock_mgr.Blocked (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.S);
  check bool_t "t1 holds" true (Lock_mgr.holds lm ~txn:1 (ent 0) Lock_mgr.X);
  check bool_t "t2 does not" false (Lock_mgr.holds lm ~txn:2 (ent 0) Lock_mgr.S);
  let woken = Lock_mgr.release_all lm ~txn:1 in
  check (Alcotest.list int_t) "t2 woken" [ 2 ] woken;
  check bool_t "t2 now holds" true (Lock_mgr.holds lm ~txn:2 (ent 0) Lock_mgr.S)

let test_shared_locks_coexist () =
  let lm = Lock_mgr.create () in
  check outcome_t "t1 S" Lock_mgr.Granted (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S);
  check outcome_t "t2 S" Lock_mgr.Granted (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.S);
  check outcome_t "t3 X blocked" Lock_mgr.Blocked (Lock_mgr.acquire lm ~txn:3 (ent 0) Lock_mgr.X);
  ignore (Lock_mgr.release_all lm ~txn:1);
  check bool_t "t3 still blocked" false (Lock_mgr.holds lm ~txn:3 (ent 0) Lock_mgr.X);
  let woken = Lock_mgr.release_all lm ~txn:2 in
  check (Alcotest.list int_t) "t3 woken" [ 3 ] woken

let test_reacquire_covered () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  check outcome_t "S covered by X" Lock_mgr.Granted
    (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S)

let test_upgrade () =
  let lm = Lock_mgr.create () in
  check outcome_t "t1 S" Lock_mgr.Granted (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S);
  check outcome_t "upgrade to X" Lock_mgr.Granted
    (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  check outcome_t "t2 S blocked" Lock_mgr.Blocked (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.S)

let test_upgrade_blocked_by_other_reader () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S);
  ignore (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.S);
  check outcome_t "upgrade waits" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  let woken = Lock_mgr.release_all lm ~txn:2 in
  check (Alcotest.list int_t) "upgrade granted" [ 1 ] woken;
  check bool_t "t1 has X" true (Lock_mgr.holds lm ~txn:1 (ent 0) Lock_mgr.X)

let test_relation_intention_vs_checkpoint () =
  (* Writer holds IX on the relation; a checkpoint's S must wait — the
     §2.4 consistency argument. *)
  let lm = Lock_mgr.create () in
  check outcome_t "writer IX" Lock_mgr.Granted
    (Lock_mgr.acquire lm ~txn:1 (rel 7) Lock_mgr.IX);
  check outcome_t "ckpt S blocked" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:2 (rel 7) Lock_mgr.S);
  (* FIFO fairness: a later writer queues behind the waiting checkpoint
     rather than starving it. *)
  check outcome_t "writer2 queues behind ckpt" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:3 (rel 7) Lock_mgr.IX);
  let woken = Lock_mgr.release_all lm ~txn:1 in
  check (Alcotest.list int_t) "ckpt proceeds first" [ 2 ] woken;
  check bool_t "ckpt holds S" true (Lock_mgr.holds lm ~txn:2 (rel 7) Lock_mgr.S);
  let woken = Lock_mgr.release_all lm ~txn:2 in
  check (Alcotest.list int_t) "then writer2" [ 3 ] woken

let test_readers_coexist_with_intent_readers () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (rel 7) Lock_mgr.IS);
  check outcome_t "S with IS" Lock_mgr.Granted (Lock_mgr.acquire lm ~txn:2 (rel 7) Lock_mgr.S)

let test_deadlock_detected () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  ignore (Lock_mgr.acquire lm ~txn:2 (ent 1) Lock_mgr.X);
  check outcome_t "t1 waits on t2" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:1 (ent 1) Lock_mgr.X);
  check outcome_t "t2 on t1 = deadlock" Lock_mgr.Deadlock
    (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.X);
  (* Victim aborts; t1 proceeds. *)
  let woken = Lock_mgr.release_all lm ~txn:2 in
  check (Alcotest.list int_t) "t1 woken" [ 1 ] woken

let test_three_party_deadlock () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  ignore (Lock_mgr.acquire lm ~txn:2 (ent 1) Lock_mgr.X);
  ignore (Lock_mgr.acquire lm ~txn:3 (ent 2) Lock_mgr.X);
  check outcome_t "1→2" Lock_mgr.Blocked (Lock_mgr.acquire lm ~txn:1 (ent 1) Lock_mgr.X);
  check outcome_t "2→3" Lock_mgr.Blocked (Lock_mgr.acquire lm ~txn:2 (ent 2) Lock_mgr.X);
  check outcome_t "3→1 closes cycle" Lock_mgr.Deadlock
    (Lock_mgr.acquire lm ~txn:3 (ent 0) Lock_mgr.X)

let test_upgrade_deadlock () =
  (* Two S holders both upgrading is the classic conversion deadlock. *)
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S);
  ignore (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.S);
  check outcome_t "t1 upgrade waits" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  check outcome_t "t2 upgrade deadlocks" Lock_mgr.Deadlock
    (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.X)

let test_fifo_fairness () =
  (* A writer queued behind a reader must not be overtaken by later
     readers. *)
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S);
  check outcome_t "writer queues" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.X);
  check outcome_t "late reader queues behind writer" Lock_mgr.Blocked
    (Lock_mgr.acquire lm ~txn:3 (ent 0) Lock_mgr.S);
  let woken = Lock_mgr.release_all lm ~txn:1 in
  check (Alcotest.list int_t) "writer first" [ 2 ] woken

(* -- sharded lock table ------------------------------------------------------ *)

(* First [n] entity resources hashing to pairwise-distinct shards. *)
let distinct_shard_entities lm n =
  let seen = Hashtbl.create 8 in
  let picked = ref [] in
  let i = ref 0 in
  while List.length !picked < n do
    let r = ent !i in
    let s = Lock_mgr.shard_of lm r in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      picked := r :: !picked
    end;
    incr i
  done;
  List.rev !picked

let test_cross_shard_deadlock () =
  (* Three-party cycle whose waits-for edges each span a different pair of
     shards: the request-time cycle search follows the per-transaction
     resource index, not the shard tables, so it must close the cycle
     exactly as in the unsharded manager. *)
  let lm = Lock_mgr.create ~shards:4 () in
  check int_t "shard count" 4 (Lock_mgr.shard_count lm);
  match distinct_shard_entities lm 3 with
  | [ a; b; c ] ->
      let s r = Lock_mgr.shard_of lm r in
      check bool_t "resources on three distinct shards" true
        (s a <> s b && s b <> s c && s a <> s c);
      ignore (Lock_mgr.acquire lm ~txn:1 a Lock_mgr.X);
      ignore (Lock_mgr.acquire lm ~txn:2 b Lock_mgr.X);
      ignore (Lock_mgr.acquire lm ~txn:3 c Lock_mgr.X);
      check outcome_t "1→2 crosses shards" Lock_mgr.Blocked
        (Lock_mgr.acquire lm ~txn:1 b Lock_mgr.X);
      check outcome_t "2→3 crosses shards" Lock_mgr.Blocked
        (Lock_mgr.acquire lm ~txn:2 c Lock_mgr.X);
      check outcome_t "3→1 closes the cross-shard cycle" Lock_mgr.Deadlock
        (Lock_mgr.acquire lm ~txn:3 a Lock_mgr.X);
      (* Victim aborts; the chain unwinds across shard boundaries. *)
      let woken = Lock_mgr.release_all lm ~txn:3 in
      check (Alcotest.list int_t) "t2 woken from another shard" [ 2 ] woken
  | _ -> Alcotest.fail "could not find three distinct shards"

let test_fifo_survives_sharding () =
  (* The FIFO guarantee is per-entry and the shard is a pure storage
     partition, so grant order must be byte-identical for any shard
     count.  Replay the same scripted contention at 1 and 8 shards. *)
  let script lm =
    (* Explicit lets: list literals would evaluate the acquires in reverse. *)
    let o1 = Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.S in
    let o2 = Lock_mgr.acquire lm ~txn:2 (ent 0) Lock_mgr.X in
    let o3 = Lock_mgr.acquire lm ~txn:3 (ent 0) Lock_mgr.S in
    let o4 = Lock_mgr.acquire lm ~txn:4 (ent 0) Lock_mgr.X in
    let os = [ o1; o2; o3; o4 ] in
    let w1 = Lock_mgr.release_all lm ~txn:1 in
    let w2 = Lock_mgr.release_all lm ~txn:2 in
    let w3 = Lock_mgr.release_all lm ~txn:3 in
    (os, [ w1; w2; w3 ])
  in
  let os1, wakes1 = script (Lock_mgr.create ~shards:1 ()) in
  let os8, wakes8 = script (Lock_mgr.create ~shards:8 ()) in
  check (Alcotest.list outcome_t) "outcomes identical across shard counts"
    os1 os8;
  check
    (Alcotest.list (Alcotest.list int_t))
    "wake order identical across shard counts" wakes1 wakes8;
  check
    (Alcotest.list (Alcotest.list int_t))
    "writer first, then reader, then late writer"
    [ [ 2 ]; [ 3 ]; [ 4 ] ]
    wakes8

let test_locked_resources_tracking () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.acquire lm ~txn:1 (rel 1) Lock_mgr.IX);
  ignore (Lock_mgr.acquire lm ~txn:1 (ent 0) Lock_mgr.X);
  check int_t "two resources" 2 (List.length (Lock_mgr.locked_resources lm ~txn:1));
  ignore (Lock_mgr.release_all lm ~txn:1);
  check int_t "none after release" 0 (List.length (Lock_mgr.locked_resources lm ~txn:1))

(* Safety property: under random acquire/release schedules, the set of
   granted locks on each resource is always mutually compatible, and a
   granted request is never silently lost. *)
let prop_lock_safety =
  QCheck.Test.make ~name:"2PL safety: granted sets always compatible" ~count:150
    QCheck.(
      small_list
        (triple (int_range 1 6) (int_range 0 3) (int_bound 9)))
    (fun schedule ->
      let lm = Lock_mgr.create () in
      let granted : (int * Lock_mgr.resource * Lock_mgr.mode) list ref = ref [] in
      let mode_of = function
        | 0 -> Lock_mgr.IS
        | 1 -> Lock_mgr.IX
        | 2 -> Lock_mgr.S
        | _ -> Lock_mgr.X
      in
      let ok = ref true in
      List.iter
        (fun (txn, mode_i, res_i) ->
          if res_i = 9 then begin
            (* Release everything this txn holds; woken txns become granted. *)
            ignore (Lock_mgr.release_all lm ~txn);
            granted := List.filter (fun (t, _, _) -> t <> txn) !granted
          end
          else begin
            let resource =
              if res_i < 5 then Lock_mgr.Relation res_i
              else ent (res_i - 5)
            in
            let mode = mode_of mode_i in
            match Lock_mgr.acquire lm ~txn resource mode with
            | Lock_mgr.Granted ->
                (* Must be compatible with every other holder. *)
                List.iter
                  (fun (t, r, m) ->
                    if t <> txn && r = resource && not (Lock_mgr.compatible mode m)
                    then ok := false)
                  !granted;
                granted := (txn, resource, mode) :: !granted
            | Lock_mgr.Blocked | Lock_mgr.Deadlock ->
                (* Blocked/refused txns keep their previous grants; abort
                   the blocked txn to keep the schedule simple. *)
                ignore (Lock_mgr.release_all lm ~txn);
                granted := List.filter (fun (t, _, _) -> t <> txn) !granted
          end;
          (* Cross-check holds for a sample of what we believe is granted. *)
          List.iter
            (fun (t, r, m) ->
              if not (Lock_mgr.holds lm ~txn:t r m) then
                (* It may have been woken into a stronger mode; holds with
                   the original mode must still be covered. *)
                ok := false)
            !granted)
        schedule;
      !ok)

(* -- Undo space ------------------------------------------------------------- *)

let part_a : Addr.partition = { Addr.segment = 1; partition = 0 }
let part_b : Addr.partition = { Addr.segment = 2; partition = 3 }

let test_undo_push_pop_order () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let u = Undo_space.create epoch in
  let c = Undo_space.open_chain u in
  Undo_space.push u c part_a (Part_op.Delete { slot = 1 });
  Undo_space.push u c part_b (Part_op.Delete { slot = 2 });
  Undo_space.push u c part_a (Part_op.Delete { slot = 3 });
  check int_t "count" 3 (Undo_space.record_count c);
  let records = Undo_space.pop_all u c in
  check (Alcotest.list int_t) "reverse order"
    [ 3; 2; 1 ]
    (List.map (fun (_, op) -> Part_op.slot op) records)

let test_undo_spans_blocks () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let u = Undo_space.create ~block_bytes:256 ~block_count:64 epoch in
  let c = Undo_space.open_chain u in
  let big = Bytes.make 100 'u' in
  for i = 1 to 10 do
    Undo_space.push u c part_a (Part_op.Insert { slot = i; data = big })
  done;
  check bool_t "multiple blocks" true (Undo_space.blocks_in_use u > 1);
  let records = Undo_space.pop_all u c in
  check (Alcotest.list int_t) "still reverse order"
    [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ]
    (List.map (fun (_, op) -> Part_op.slot op) records);
  check int_t "all blocks released" 0 (Undo_space.blocks_in_use u)

let test_undo_discard_releases () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let u = Undo_space.create ~block_bytes:256 ~block_count:4 epoch in
  let c = Undo_space.open_chain u in
  Undo_space.push u c part_a (Part_op.Delete { slot = 1 });
  Undo_space.discard u c;
  check int_t "released" 0 (Undo_space.blocks_in_use u)

let test_undo_exhaustion () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let u = Undo_space.create ~block_bytes:64 ~block_count:2 epoch in
  let c = Undo_space.open_chain u in
  Alcotest.check_raises "out of space" Undo_space.Out_of_undo_space (fun () ->
      for i = 1 to 100 do
        Undo_space.push u c part_a (Part_op.Insert { slot = i; data = Bytes.make 30 'x' })
      done)

(* A fresh space (one per restart) holds no block buffers: 1,024 x 2 KB
   would be 2 MB allocated before the first transaction.  A block gets its
   buffer at first use and keeps it for the next chain. *)
let test_undo_blocks_on_first_use () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let a0 = Gc.allocated_bytes () in
  let u = Undo_space.create ~block_bytes:2048 ~block_count:1024 epoch in
  let created = Gc.allocated_bytes () -. a0 in
  check bool_t (Printf.sprintf "create allocates %.0f B" created) true (created < 65536.);
  check int_t "all free" 1024 (Undo_space.blocks_free u);
  let c = Undo_space.open_chain u in
  Undo_space.push u c part_a (Part_op.Delete { slot = 1 });
  Undo_space.discard u c;
  let a1 = Gc.allocated_bytes () in
  let c = Undo_space.open_chain u in
  Undo_space.push u c part_a (Part_op.Delete { slot = 2 });
  let reused = Gc.allocated_bytes () -. a1 in
  check bool_t (Printf.sprintf "second chain allocates %.0f B" reused) true (reused < 2048.);
  check (Alcotest.list int_t) "record" [ 2 ]
    (List.map (fun (_, op) -> Part_op.slot op) (Undo_space.pop_all u c));
  check int_t "all free again" 1024 (Undo_space.blocks_free u)

let test_undo_lost_on_crash () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let u = Undo_space.create epoch in
  let c = Undo_space.open_chain u in
  Undo_space.push u c part_a (Part_op.Delete { slot = 1 });
  Mrdb_hw.Volatile.Epoch.crash epoch;
  Alcotest.check_raises "volatile"
    (Mrdb_hw.Volatile.Lost "undo-space: volatile data lost in crash") (fun () ->
      ignore (Undo_space.pop_all u c))

(* -- Txn lifecycle ------------------------------------------------------------- *)

let bank_schema = Schema.of_list [ ("id", Schema.Int); ("balance", Schema.Int) ]

type world = {
  mgr : Txn.Manager.mgr;
  relation : Relation.t;
  invalidated : int list ref;
}

let mk_world () =
  let epoch = Mrdb_hw.Volatile.Epoch.create () in
  let undo = Undo_space.create epoch in
  let segment = Segment.create ~id:3 ~partition_bytes:4096 in
  let relation = Relation.create ~id:1 ~name:"acct" ~schema:bank_schema ~segment in
  let invalidated = ref [] in
  let mgr =
    Txn.Manager.create ~undo
      ~resolve_partition:(fun (part : Addr.partition) ->
        Segment.find_exn segment part.Addr.partition)
      ~invalidate_overlay:(fun seg -> invalidated := seg :: !invalidated)
      ()
  in
  { mgr; relation; invalidated }

let log_via w t part ~redo ~undo = Txn.Manager.record_update w.mgr t part ~redo ~undo

let test_txn_commit_discards_undo () =
  let w = mk_world () in
  let t = Txn.Manager.begin_txn w.mgr in
  let _ = Relation.insert w.relation ~log:(log_via w t) [| Schema.int 1; Schema.int 100 |] in
  check int_t "one undo record" 1 (Txn.undo_records t);
  Txn.Manager.commit w.mgr t;
  check bool_t "committed" true (Txn.status t = Txn.Committed);
  check int_t "tuple survives" 1 (Relation.cardinality w.relation)

let test_txn_abort_restores_state () =
  let w = mk_world () in
  (* Committed baseline. *)
  let t0 = Txn.Manager.begin_txn w.mgr in
  let addr = Relation.insert w.relation ~log:(log_via w t0) [| Schema.int 1; Schema.int 100 |] in
  Txn.Manager.commit w.mgr t0;
  (* Aborting transaction mutates everything then rolls back. *)
  let t = Txn.Manager.begin_txn w.mgr in
  let addr' = Relation.update_field w.relation ~log:(log_via w t) addr 1 (Schema.int 999) in
  let _ = Relation.insert w.relation ~log:(log_via w t) [| Schema.int 2; Schema.int 7 |] in
  let _ = Relation.delete w.relation ~log:(log_via w t) addr' in
  Txn.Manager.abort w.mgr t;
  check bool_t "aborted" true (Txn.status t = Txn.Aborted);
  check int_t "one tuple again" 1 (Relation.cardinality w.relation);
  check bool_t "original value restored" true
    (match Relation.read w.relation addr with
    | Some tup -> Schema.to_int (Tuple.field tup 1) = 100
    | None -> false)

let test_txn_abort_invalidates_overlays () =
  let w = mk_world () in
  let t = Txn.Manager.begin_txn w.mgr in
  let _ = Relation.insert w.relation ~log:(log_via w t) [| Schema.int 1; Schema.int 1 |] in
  Txn.Manager.abort w.mgr t;
  check (Alcotest.list int_t) "segment 3 invalidated" [ 3 ] !(w.invalidated)

let test_txn_states () =
  let w = mk_world () in
  let t = Txn.Manager.begin_txn w.mgr in
  check bool_t "active" true (Txn.status t = Txn.Active);
  Txn.Manager.precommit w.mgr t;
  check bool_t "precommitted" true (Txn.status t = Txn.Precommitted);
  Alcotest.check_raises "no double precommit"
    (Invalid_argument (Printf.sprintf "Txn.precommit: transaction %d is not active" (Txn.id t)))
    (fun () -> Txn.Manager.precommit w.mgr t);
  Txn.Manager.finalize_commit w.mgr t;
  check bool_t "committed" true (Txn.status t = Txn.Committed);
  check bool_t "terminated" true (Txn.is_terminated t)

let test_txn_cannot_update_after_commit () =
  let w = mk_world () in
  let t = Txn.Manager.begin_txn w.mgr in
  Txn.Manager.commit w.mgr t;
  Alcotest.check_raises "not active"
    (Invalid_argument (Printf.sprintf "Txn.record_update: transaction %d is not active" (Txn.id t)))
    (fun () ->
      Txn.Manager.record_update w.mgr t part_a
        ~redo:(Part_op.Delete { slot = 0 })
        ~undo:(Part_op.Delete { slot = 0 }))

let test_txn_ids_monotonic () =
  let w = mk_world () in
  let a = Txn.Manager.begin_txn w.mgr in
  let b = Txn.Manager.begin_txn w.mgr in
  check bool_t "monotonic ids" true (Txn.id b > Txn.id a);
  check int_t "two active" 2 (Txn.Manager.active_count w.mgr)

(* -- Per-executor arena ------------------------------------------------------ *)

(* Insert through the arena allocator, as Db's write path does. *)
let arena_insert w a t i =
  ignore
    (Relation.insert w.relation ~alloc:(Arena.alloc a) ~log:(log_via w t)
       [| Schema.int i; Schema.int (i * 10) |])

let test_arena_reset_on_commit () =
  let w = mk_world () in
  let a = Txn.Manager.arena w.mgr ~executor:0 in
  check int_t "starts empty" 0 (Arena.in_use a);
  let t = Txn.Manager.begin_txn w.mgr in
  arena_insert w a t 1;
  check bool_t "buffers staged" true (Arena.in_use a > 0);
  Txn.Manager.commit w.mgr t;
  check int_t "fully reset on commit" 0 (Arena.in_use a);
  check bool_t "buffers pooled, not dropped" true (Arena.pooled a > 0);
  (* A second transaction of the same shape recycles pooled buffers: the
     lifetime miss count must not grow. *)
  let misses_before = Arena.misses a in
  let t2 = Txn.Manager.begin_txn w.mgr in
  arena_insert w a t2 2;
  Txn.Manager.commit w.mgr t2;
  check int_t "second txn recycles (no new misses)" misses_before (Arena.misses a);
  check int_t "reset again" 0 (Arena.in_use a)

let test_arena_reset_on_abort () =
  let w = mk_world () in
  let a = Txn.Manager.arena w.mgr ~executor:0 in
  let t = Txn.Manager.begin_txn w.mgr in
  arena_insert w a t 1;
  check bool_t "buffers staged" true (Arena.in_use a > 0);
  Txn.Manager.abort w.mgr t;
  check int_t "fully reset on abort" 0 (Arena.in_use a);
  check bool_t "buffers pooled" true (Arena.pooled a > 0)

let test_arena_reset_on_crash () =
  let w = mk_world () in
  let a = Txn.Manager.arena w.mgr ~executor:0 in
  let t = Txn.Manager.begin_txn w.mgr in
  arena_insert w a t 1;
  check bool_t "buffers staged" true (Arena.in_use a > 0);
  Txn.Manager.crash_discard w.mgr;
  check int_t "fully reset on crash" 0 (Arena.in_use a)

let test_arena_survives_concurrent_txns () =
  (* The arena resets only when its executor goes fully idle: with two
     live transactions on executor 0, committing one must NOT recycle the
     other's staged buffers. *)
  let w = mk_world () in
  let a = Txn.Manager.arena w.mgr ~executor:0 in
  let t1 = Txn.Manager.begin_txn w.mgr in
  let t2 = Txn.Manager.begin_txn w.mgr in
  arena_insert w a t1 1;
  arena_insert w a t2 2;
  let staged = Arena.in_use a in
  Txn.Manager.commit w.mgr t1;
  check int_t "t2 still active: nothing recycled" staged (Arena.in_use a);
  Txn.Manager.commit w.mgr t2;
  check int_t "last commit resets" 0 (Arena.in_use a)

let prop_txn_random_abort_equals_noop =
  QCheck.Test.make ~name:"abort is a no-op on relation state" ~count:60
    QCheck.(make Gen.(list_size (int_range 1 40) (int_bound 2)))
    (fun ops ->
      let w = mk_world () in
      (* Baseline data, committed. *)
      let t0 = Txn.Manager.begin_txn w.mgr in
      let addrs = ref [] in
      for i = 1 to 10 do
        addrs :=
          Relation.insert w.relation ~log:(log_via w t0)
            [| Schema.int i; Schema.int (i * 10) |]
          :: !addrs
      done;
      Txn.Manager.commit w.mgr t0;
      let snapshot =
        Relation.fold (fun acc addr tup -> (addr, tup) :: acc) [] w.relation
      in
      (* Random mutation stream, then abort. *)
      let t = Txn.Manager.begin_txn w.mgr in
      let live = ref !addrs in
      List.iteri
        (fun i op ->
          match (op, !live) with
          | 0, _ ->
              let a =
                Relation.insert w.relation ~log:(log_via w t)
                  [| Schema.int (100 + i); Schema.int i |]
              in
              live := a :: !live
          | 1, a :: _ ->
              ignore (Relation.update_field w.relation ~log:(log_via w t) a 1 (Schema.int (-i)))
          | _, a :: rest ->
              ignore (Relation.delete w.relation ~log:(log_via w t) a);
              live := rest
          | _, [] -> ())
        ops;
      Txn.Manager.abort w.mgr t;
      let after =
        Relation.fold (fun acc addr tup -> (addr, tup) :: acc) [] w.relation
      in
      List.length snapshot = List.length after
      && List.for_all2
           (fun (a1, t1) (a2, t2) -> Addr.equal a1 a2 && Tuple.equal t1 t2)
           (List.sort compare snapshot) (List.sort compare after))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mrdb_txn"
    [
      ( "lock_mgr",
        [
          Alcotest.test_case "compatibility matrix" `Quick test_compat_matrix;
          Alcotest.test_case "supremum" `Quick test_supremum;
          Alcotest.test_case "grant/conflict/wake" `Quick test_basic_grant_conflict;
          Alcotest.test_case "shared locks coexist" `Quick test_shared_locks_coexist;
          Alcotest.test_case "covered reacquire" `Quick test_reacquire_covered;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "upgrade waits for reader" `Quick test_upgrade_blocked_by_other_reader;
          Alcotest.test_case "checkpoint S vs writer IX" `Quick test_relation_intention_vs_checkpoint;
          Alcotest.test_case "IS coexists with S" `Quick test_readers_coexist_with_intent_readers;
          Alcotest.test_case "two-party deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "three-party deadlock" `Quick test_three_party_deadlock;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "FIFO fairness" `Quick test_fifo_fairness;
          Alcotest.test_case "cross-shard three-party deadlock" `Quick
            test_cross_shard_deadlock;
          Alcotest.test_case "FIFO grant order survives sharding" `Quick
            test_fifo_survives_sharding;
          Alcotest.test_case "resource tracking" `Quick test_locked_resources_tracking;
        ]
        @ qsuite [ prop_lock_safety ] );
      ( "undo_space",
        [
          Alcotest.test_case "push/pop reverse order" `Quick test_undo_push_pop_order;
          Alcotest.test_case "spans blocks" `Quick test_undo_spans_blocks;
          Alcotest.test_case "discard releases" `Quick test_undo_discard_releases;
          Alcotest.test_case "exhaustion" `Quick test_undo_exhaustion;
          Alcotest.test_case "lost on crash" `Quick test_undo_lost_on_crash;
          Alcotest.test_case "block buffers on first use" `Quick
            test_undo_blocks_on_first_use;
        ] );
      ( "txn",
        [
          Alcotest.test_case "commit discards undo" `Quick test_txn_commit_discards_undo;
          Alcotest.test_case "abort restores state" `Quick test_txn_abort_restores_state;
          Alcotest.test_case "abort invalidates overlays" `Quick test_txn_abort_invalidates_overlays;
          Alcotest.test_case "state machine" `Quick test_txn_states;
          Alcotest.test_case "no update after commit" `Quick test_txn_cannot_update_after_commit;
          Alcotest.test_case "monotonic ids" `Quick test_txn_ids_monotonic;
        ]
        @ qsuite [ prop_txn_random_abort_equals_noop ] );
      ( "arena",
        [
          Alcotest.test_case "reset on commit + recycle" `Quick test_arena_reset_on_commit;
          Alcotest.test_case "reset on abort" `Quick test_arena_reset_on_abort;
          Alcotest.test_case "reset on crash" `Quick test_arena_reset_on_crash;
          Alcotest.test_case "held across concurrent txns" `Quick
            test_arena_survives_concurrent_txns;
        ] );
    ]
