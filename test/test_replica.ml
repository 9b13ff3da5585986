(* Warm-standby replication: frame codec, role state machine, the three
   headline scenarios, and a determinism golden locking a full
   primary-crash-then-failover run (exact trace counters on both nodes +
   both simulated clocks).

   Re-capture the golden after an intentional protocol change with
     MRDB_REPLICA_CAPTURE=1 dune exec test/test_replica.exe *)

open Mrdb_core
module Replica = Mrdb_replica.Replica
module Scenario = Mrdb_replica.Scenario
module Ship_log = Mrdb_replica.Ship_log
module Schema = Mrdb_storage.Schema
module Rng = Mrdb_util.Rng

let check = Alcotest.check

(* -- Ship_log frame codec ------------------------------------------------- *)

let sample_batch =
  Ship_log.Batch
    {
      Ship_log.epoch = 3;
      cut = 17;
      full = true;
      log_pages = [ (4L, Bytes.of_string "page-four"); (5L, Bytes.of_string "page-five") ];
      ckpt_pages = [ (0, Bytes.of_string "ckpt-zero"); (9, Bytes.make 64 '\xAB') ];
      checks =
        [
          {
            Ship_log.part = { Mrdb_storage.Addr.segment = 1; partition = 2 };
            ckpt_page = 9;
            ckpt_pages = 1;
            crc = 0xDEADBEEFl;
          };
          {
            Ship_log.part = { Mrdb_storage.Addr.segment = 0; partition = 0 };
            ckpt_page = -1 (* never checkpointed *);
            ckpt_pages = 0;
            crc = 0l;
          };
        ];
      stable = Bytes.make 256 '\x5A';
    }

let sample_ack = Ship_log.Ack { epoch = 3; cut = 17; status = Ship_log.Diverged }

let test_codec_roundtrip () =
  List.iter
    (fun frame ->
      match Ship_log.decode (Ship_log.encode frame) with
      | Ok decoded ->
          check Alcotest.bool "frame survives encode/decode" true (decoded = frame)
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [ sample_batch; sample_ack ]

let test_codec_rejects_corruption () =
  let b = Ship_log.encode sample_batch in
  (* Flip one payload byte: the envelope CRC must catch it. *)
  let corrupt = Bytes.copy b in
  let off = Bytes.length corrupt - 3 in
  Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x40));
  (match Ship_log.decode corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted frame decoded");
  (* Truncation anywhere must be an Error, never an exception. *)
  for len = 0 to min 64 (Bytes.length b - 1) do
    match Ship_log.decode (Bytes.sub b 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated frame (len %d) decoded" len
  done;
  (* Wrong magic. *)
  let wrong = Bytes.copy b in
  Bytes.set wrong 0 'X';
  match Ship_log.decode wrong with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "frame with wrong magic decoded"

(* A batch the size a default-config cut ships (a full stable-memory
   image plus a log and a checkpoint page) is built in one buffer of its
   final length, and decoded without a copy of its body: the decoded
   batch owns copies of its page and stable images, about one frame
   length, and a body copy would double that. *)
let test_codec_one_buffer () =
  let stable_bytes = Mrdb_wal.Stable_layout.required_bytes Config.default.Config.stable in
  let page = Bytes.init 8192 (fun i -> Char.chr (i land 0xFF)) in
  let frame =
    Ship_log.Batch
      {
        Ship_log.epoch = 1;
        cut = 2;
        full = true;
        log_pages = [ (40L, page) ];
        ckpt_pages = [ (3, Bytes.copy page) ];
        checks =
          [
            {
              Ship_log.part = { Mrdb_storage.Addr.segment = 1; partition = 0 };
              ckpt_page = 3;
              ckpt_pages = 1;
              crc = 0x1234l;
            };
          ];
        stable = Bytes.make stable_bytes '\x33';
      }
  in
  let allocated f =
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    (r, Gc.allocated_bytes () -. a0)
  in
  let wire, enc = allocated (fun () -> Ship_log.encode frame) in
  let len = float_of_int (Bytes.length wire) in
  check Alcotest.bool
    (Printf.sprintf "encode allocates %.0f B for a %.0f B frame" enc len)
    true (enc <= 1.25 *. len);
  let decoded, dec = allocated (fun () -> Ship_log.decode wire) in
  check Alcotest.bool
    (Printf.sprintf "decode allocates %.0f B for a %.0f B frame" dec len)
    true (dec <= 1.25 *. len);
  check Alcotest.bool "frame survives encode/decode" true (decoded = Ok frame)

(* -- Role state machine --------------------------------------------------- *)

let expect_misuse what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_role_gating () =
  let cl = Replica.create () in
  let p = Replica.primary cl and s = Replica.standby cl in
  check Alcotest.bool "fresh primary role" true (Db.role p = Db.Primary);
  check Alcotest.bool "fresh standby role" true (Db.role s = Db.Standby);
  (* A standby accepts no client work, warm or cold. *)
  expect_misuse "begin_txn on standby" (fun () -> Db.begin_txn s);
  expect_misuse "create_relation on standby" (fun () ->
      Db.create_relation s ~name:"t"
        ~schema:(Schema.of_list [ ("k", Schema.Int) ]));
  (* Promotion is one-way and only from the standby role. *)
  expect_misuse "promote a primary" (fun () -> Db.promote p);
  (* Demotion requires a cold node: the volatile state must be gone. *)
  expect_misuse "demote a live primary" (fun () -> Db.demote_to_standby p)

(* -- Audit of a structurally corrupt image ---------------------------------- *)

(* The standby's copy of a checkpoint image is replaced by one whose CRC
   is valid but whose partition header is not (data tail past the end of
   the partition).  Rebuilding it raises inside [Partition.of_snapshot];
   the audit must report that as divergence — a [Diverged] ack — and the
   next cut must re-seed the standby under a bumped epoch. *)
let test_corrupt_header_image_diverges () =
  let module Ckpt_image = Mrdb_ckpt.Ckpt_image in
  let module Disk = Mrdb_hw.Disk in
  let cl = Replica.create ~lag_bound:1000 () in
  let p = Replica.primary cl and s = Replica.standby cl in
  Db.create_relation p ~name:"t" ~schema:(Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]);
  for i = 1 to 6 do
    Db.with_txn p (fun tx -> ignore (Db.insert p tx ~rel:"t" [| Schema.int i; Schema.int i |]))
  done;
  Db.checkpoint_all p;
  ignore (Replica.ship_cut cl);
  let first, n =
    match List.filter_map (Db.checkpoint_location p) (Db.all_partitions p) with
    | loc :: _ -> loc
    | [] -> Alcotest.fail "no checkpointed partition"
  in
  let disk = Db.ckpt_disk s in
  let pages =
    List.init n (fun i ->
        match Disk.with_page disk ~page:(first + i) Bytes.copy with
        | Some pg -> pg
        | None -> Alcotest.fail "standby image page missing")
  in
  let page_bytes = Bytes.length (List.hd pages) in
  let image = Bytes.concat Bytes.empty pages in
  let v =
    match Ckpt_image.check image with Ok v -> v | Error e -> Alcotest.fail e
  in
  let snapshot = Bytes.sub image v.Ckpt_image.pos v.Ckpt_image.len in
  Mrdb_util.Codec.put_u32 snapshot 16 (Bytes.length snapshot + 1) (* data tail *);
  let bad =
    Ckpt_image.encode ~page_bytes
      { Ckpt_image.part = v.Ckpt_image.v_part; watermark = v.Ckpt_image.v_watermark; snapshot }
  in
  check Alcotest.bool "corrupt image still passes its CRC" true
    (Result.is_ok (Ckpt_image.check bad));
  List.iteri
    (fun i _ -> Disk.install_page disk ~page:(first + i) (Bytes.sub bad (i * page_bytes) page_bytes))
    pages;
  let count db c = Mrdb_sim.Trace.count (Db.trace db) c in
  ignore (Replica.ship_cut cl) (* audit fails; ack Diverged *);
  check Alcotest.bool "audit reported divergence" true (count s "replica_divergences" > 0);
  check Alcotest.bool "primary saw the Diverged ack" true (count p "ship_acks_diverged" > 0);
  ignore (Replica.ship_cut cl) (* full re-seed *);
  check Alcotest.bool "re-seed forced" true (count p "ship_reseeds" > 0);
  check Alcotest.bool "epoch bumped" true (Replica.epoch cl > 1)

(* -- Headline scenarios --------------------------------------------------- *)

let pp_report (r : Scenario.report) =
  Printf.sprintf
    "seed %d: committed %d cuts %d prefix %d/%d durable-floor %d div %d reseeds %d lag %d"
    r.Scenario.seed r.committed r.cuts r.prefix_len r.committed r.durable_len
    r.divergences r.reseeds r.lag_at_failover

let run_scenario name f seed =
  let r = f ~seed () in
  if not r.Scenario.prefix_ok then
    Alcotest.failf "%s failed acceptance: %s" name (pp_report r);
  r

let test_catchup seed () =
  let r = run_scenario "catchup" Scenario.catchup seed in
  check Alcotest.bool "full history reproduced" true
    (r.Scenario.prefix_len = r.Scenario.committed);
  check Alcotest.int "post-catchup lag" 0 r.Scenario.lag_at_failover;
  check Alcotest.bool "multiple cuts shipped" true (r.Scenario.cuts >= 3)

let test_failover seed () =
  let r = run_scenario "failover" Scenario.failover seed in
  check Alcotest.bool "prefix at least the acked floor" true
    (r.Scenario.prefix_len >= r.Scenario.durable_len);
  check Alcotest.bool "failover phase charged simulated time" true
    (r.Scenario.promote_us > 0.0)

let test_divergence seed () =
  let r = run_scenario "divergence" Scenario.divergence seed in
  check Alcotest.bool "divergence detected" true (r.Scenario.divergences > 0);
  check Alcotest.bool "re-seed forced" true (r.Scenario.reseeds > 0);
  check Alcotest.bool "full history after re-seed" true
    (r.Scenario.prefix_len = r.Scenario.committed)

(* -- Failover determinism golden ------------------------------------------

   A fixed-seed primary-crash-then-failover flow, locked by the exact
   trace counters of BOTH nodes and both simulated clocks.  Any change to
   the shipping protocol, the batch contents, the audit, or promotion
   scheduling shows up here as a counter or clock drift. *)

let run_failover_golden () =
  let cl = Replica.create ~lag_bound:16 () in
  let p = Replica.primary cl in
  Db.create_relation p ~name:"t"
    ~schema:(Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]);
  ignore (Replica.ship_cut cl);
  let rng = Rng.of_int 42 in
  let addr_of = Hashtbl.create 64 in
  let put k v =
    Db.with_txn p (fun tx ->
        match Hashtbl.find_opt addr_of k with
        | Some a ->
            Hashtbl.replace addr_of k
              (Db.update_field p tx ~rel:"t" a ~column:"v" (Schema.int v))
        | None ->
            Hashtbl.replace addr_of k
              (Db.insert p tx ~rel:"t" [| Schema.int k; Schema.int v |]))
  in
  for i = 1 to 40 do
    put (Rng.int rng 24) i;
    ignore (Replica.maybe_ship cl)
  done;
  ignore (Db.process_checkpoints p);
  ignore (Replica.ship_cut cl);
  for i = 41 to 48 do
    put (Rng.int rng 24) i
  done;
  Replica.crash_primary cl;
  let np = Replica.promote ~mode:Config.On_demand cl in
  Db.with_txn np (fun tx ->
      ignore (Db.insert np tx ~rel:"t" [| Schema.int 1000; Schema.int 1000 |]));
  Db.recover_everything np;
  (* codec_* counters track log-byte volumes, not scheduling — exclude
     them so the goldens keep locking the event-order fingerprint only
     (same rationale as test_determinism's prefix filter). *)
  let not_codec (name, _) = not (String.starts_with ~prefix:"codec_" name) in
  let primary_counters =
    List.filter not_codec (Mrdb_sim.Trace.counters (Db.trace p))
  in
  let standby_counters =
    List.filter not_codec (Mrdb_sim.Trace.counters (Db.trace np))
  in
  ( primary_counters,
    standby_counters,
    Mrdb_sim.Sim.now (Db.sim p),
    Mrdb_sim.Sim.now (Db.sim np) )

let golden_primary_counters =
  [
    ("checkpoints", 3);
    ("ckpt_req_update_count", 3);
    ("commits", 48);
    ("crashes", 1);
    ("log_records", 55);
    ("relations_created", 1);
    ("ship_acks_ok", 4);
    ("ship_ckpt_pages", 10);
    ("ship_cuts", 4);
    ("ship_log_pages", 7);
    ("sorter_bytes_streamed", 1415);
    ("sorter_drain_calls", 54);
    ("sorter_records_streamed", 55);
  ]

let golden_standby_counters =
  [
    ("commits", 1);
    ("crashes", 1);
    ("log_records", 4);
    ("partitions_recovered", 1);
    ("promotions", 1);
    ("recoveries", 1);
    ("recovery_records_applied", 8);
    ("replica_audit_partitions", 7);
    ("replica_batches_applied", 4);
    ("replica_ckpt_pages_installed", 10);
    ("replica_log_pages_installed", 7);
    ("restorer_partitions_restored", 1);
    ("sorter_bytes_streamed", 121);
    ("sorter_drain_calls", 3);
    ("sorter_records_streamed", 4);
  ]

let golden_primary_elapsed_us = 0x1.2bf8p+15
let golden_standby_elapsed_us = 0x1.284p+15

let capture () =
  let pc, sc, pe, se = run_failover_golden () in
  Printf.printf "let golden_primary_counters = [\n";
  List.iter (fun (n, c) -> Printf.printf "  (%S, %d);\n" n c) pc;
  Printf.printf "]\n\nlet golden_standby_counters = [\n";
  List.iter (fun (n, c) -> Printf.printf "  (%S, %d);\n" n c) sc;
  Printf.printf "]\n\nlet golden_primary_elapsed_us = %h\nlet golden_standby_elapsed_us = %h\n"
    pe se

let test_failover_golden () =
  let pc, sc, pe, se = run_failover_golden () in
  check
    Alcotest.(list (pair string int))
    "primary trace counters identical to capture" golden_primary_counters pc;
  check
    Alcotest.(list (pair string int))
    "standby trace counters identical to capture" golden_standby_counters sc;
  check (Alcotest.float 0.0) "primary clock identical to capture"
    golden_primary_elapsed_us pe;
  check (Alcotest.float 0.0) "standby clock identical to capture"
    golden_standby_elapsed_us se

let test_failover_repeatable () =
  let pc1, sc1, pe1, se1 = run_failover_golden () in
  let pc2, sc2, pe2, se2 = run_failover_golden () in
  check Alcotest.(list (pair string int)) "primary counters repeatable" pc1 pc2;
  check Alcotest.(list (pair string int)) "standby counters repeatable" sc1 sc2;
  check (Alcotest.float 0.0) "primary clock repeatable" pe1 pe2;
  check (Alcotest.float 0.0) "standby clock repeatable" se1 se2

let () =
  if Sys.getenv_opt "MRDB_REPLICA_CAPTURE" <> None then capture ()
  else
    Alcotest.run "mrdb_replica"
      [
        ( "ship_log",
          [
            Alcotest.test_case "frame roundtrip" `Quick test_codec_roundtrip;
            Alcotest.test_case "corruption rejected" `Quick
              test_codec_rejects_corruption;
            Alcotest.test_case "one buffer per frame" `Quick test_codec_one_buffer;
          ] );
        ("roles", [ Alcotest.test_case "gating" `Quick test_role_gating ]);
        ( "audit",
          [
            Alcotest.test_case "corrupt image header diverges" `Quick
              test_corrupt_header_image_diverges;
          ] );
        ( "scenarios",
          List.concat_map
            (fun seed ->
              [
                Alcotest.test_case
                  (Printf.sprintf "catchup seed %d" seed)
                  `Quick (test_catchup seed);
                Alcotest.test_case
                  (Printf.sprintf "failover seed %d" seed)
                  `Quick (test_failover seed);
                Alcotest.test_case
                  (Printf.sprintf "divergence seed %d" seed)
                  `Quick (test_divergence seed);
              ])
            [ 0; 1; 2 ] );
        ( "determinism",
          [
            Alcotest.test_case "failover repeatable" `Quick
              test_failover_repeatable;
            Alcotest.test_case "failover matches capture" `Quick
              test_failover_golden;
          ] );
      ]
