(* Tests for the hardware models: disk, duplexed pair, stable memory,
   volatile memory crash semantics. *)

open Mrdb_hw

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let page_bytes = 1024

let mk_sim_disk ?(interleaved = true) () =
  let sim = Mrdb_sim.Sim.create () in
  let params =
    if interleaved then Disk.default_log_params ~page_bytes
    else Disk.default_ckpt_params ~page_bytes
  in
  (sim, Disk.create sim ~params ~capacity_pages:64)

let page_of_char c = Bytes.make page_bytes c

let ok_exn = function
  | Ok b -> b
  | Error e -> Alcotest.failf "unexpected read error: %s" e

let test_disk_write_read_roundtrip () =
  let sim, disk = mk_sim_disk () in
  let got = ref Bytes.empty in
  Disk.write_page disk ~page:3 (page_of_char 'x') (fun () ->
      Disk.read_page disk ~page:3 (fun b -> got := ok_exn b));
  Mrdb_sim.Sim.run sim;
  check Alcotest.string "roundtrip" (Bytes.to_string (page_of_char 'x'))
    (Bytes.to_string !got)

let test_disk_unwritten_reads_zero () =
  let sim, disk = mk_sim_disk () in
  let got = ref Bytes.empty in
  Disk.read_page disk ~page:9 (fun b -> got := ok_exn b);
  Mrdb_sim.Sim.run sim;
  check Alcotest.string "zeros" (Bytes.to_string (Bytes.make page_bytes '\000'))
    (Bytes.to_string !got)

let test_disk_write_takes_time () =
  let sim, disk = mk_sim_disk () in
  let done_at = ref 0.0 in
  Disk.write_page disk ~page:0 (page_of_char 'a') (fun () ->
      done_at := Mrdb_sim.Sim.now sim);
  Mrdb_sim.Sim.run sim;
  check bool_t "takes positive time" true (!done_at > 0.0)

let test_disk_sequential_cheaper_than_random () =
  (* Interleaved sequential page writes avoid seeks entirely. *)
  let sim1, d1 = mk_sim_disk () in
  for i = 0 to 9 do
    Disk.write_page d1 ~page:i (page_of_char 'a') (fun () -> ())
  done;
  Mrdb_sim.Sim.run sim1;
  let sequential = Disk.stats_busy_us d1 in
  let sim2, d2 = mk_sim_disk () in
  for i = 0 to 9 do
    (* Jump far enough apart to force real seeks. *)
    Disk.write_page d2 ~page:(i * 97 mod 64) (page_of_char 'a') (fun () -> ())
  done;
  Mrdb_sim.Sim.run sim2;
  check bool_t "sequential faster" true (sequential < Disk.stats_busy_us d2)

let test_disk_interleave_beats_full_rotation () =
  let sim1, d1 = mk_sim_disk ~interleaved:true () in
  Disk.write_page d1 ~page:0 (page_of_char 'a') (fun () -> ());
  Disk.write_page d1 ~page:1 (page_of_char 'b') (fun () -> ());
  Mrdb_sim.Sim.run sim1;
  let sim2, d2 = mk_sim_disk ~interleaved:false () in
  Disk.write_page d2 ~page:0 (page_of_char 'a') (fun () -> ());
  Disk.write_page d2 ~page:1 (page_of_char 'b') (fun () -> ());
  Mrdb_sim.Sim.run sim2;
  check bool_t "interleaved wins on back-to-back pages" true
    (Disk.stats_busy_us d1 < Disk.stats_busy_us d2)

let test_disk_fifo_order () =
  let sim, disk = mk_sim_disk () in
  let order = ref [] in
  Disk.write_page disk ~page:5 (page_of_char 'a') (fun () -> order := 1 :: !order);
  Disk.write_page disk ~page:6 (page_of_char 'b') (fun () -> order := 2 :: !order);
  Disk.read_page disk ~page:5 (fun _ -> order := 3 :: !order);
  check int_t "queued" 3 (Disk.queue_depth disk);
  Mrdb_sim.Sim.run sim;
  check (Alcotest.list int_t) "FIFO" [ 1; 2; 3 ] (List.rev !order)

let test_disk_track_write_and_read () =
  let sim, disk = mk_sim_disk () in
  let data = Bytes.create (4 * page_bytes) in
  for i = 0 to 3 do
    Bytes.fill data (i * page_bytes) page_bytes (Char.chr (Char.code 'a' + i))
  done;
  let got = ref Bytes.empty in
  Disk.write_track disk ~first_page:8 data (fun () ->
      Disk.read_track disk ~first_page:8 ~pages:4 (fun b -> got := ok_exn b));
  Mrdb_sim.Sim.run sim;
  check Alcotest.string "track roundtrip" (Bytes.to_string data) (Bytes.to_string !got);
  check bool_t "page 9 visible individually" true
    (Disk.with_page disk ~page:9 (fun b -> Bytes.get b 0) = Some 'b')

let test_disk_track_faster_than_pages () =
  let sim1, d1 = mk_sim_disk () in
  let data = Bytes.make (6 * page_bytes) 'z' in
  Disk.write_track d1 ~first_page:0 data (fun () -> ());
  Mrdb_sim.Sim.run sim1;
  let sim2, d2 = mk_sim_disk () in
  for i = 0 to 5 do
    Disk.write_page d2 ~page:i (page_of_char 'z') (fun () -> ())
  done;
  Mrdb_sim.Sim.run sim2;
  check bool_t "whole-track write is faster" true
    (Disk.stats_busy_us d1 < Disk.stats_busy_us d2)

let test_disk_bounds () =
  let _, disk = mk_sim_disk () in
  Alcotest.check_raises "page out of range"
    (Invalid_argument "disk: page 64 out of range") (fun () ->
      Disk.read_page disk ~page:64 (fun _ -> ()));
  Alcotest.check_raises "bad buffer size"
    (Invalid_argument
       (Printf.sprintf "disk: write_page size 10 <> page size %d" page_bytes))
    (fun () -> Disk.write_page disk ~page:0 (Bytes.create 10) (fun () -> ()))

let test_disk_stats () =
  let sim, disk = mk_sim_disk () in
  Disk.write_page disk ~page:0 (page_of_char 'a') (fun () -> ());
  Disk.read_page disk ~page:0 (fun _ -> ());
  Mrdb_sim.Sim.run sim;
  check int_t "ops" 2 (Disk.stats_ops disk);
  check int_t "written" 1 (Disk.stats_pages_written disk);
  check int_t "read" 1 (Disk.stats_pages_read disk)

(* -- Duplex -------------------------------------------------------------- *)

let mk_duplex () =
  let sim = Mrdb_sim.Sim.create () in
  let params = Disk.default_log_params ~page_bytes in
  (sim, Duplex.create sim ~params ~capacity_pages:32)

let test_duplex_writes_both_mirrors () =
  let sim, d = mk_duplex () in
  Duplex.write_page d ~page:4 (page_of_char 'm') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  check bool_t "primary has it" true (Disk.is_written (Duplex.primary d) ~page:4);
  check bool_t "mirror has it" true (Disk.is_written (Duplex.mirror d) ~page:4)

let test_duplex_completion_waits_for_both () =
  let sim, d = mk_duplex () in
  let done_at = ref 0.0 in
  Duplex.write_page d ~page:0 (page_of_char 'm') (fun () ->
      done_at := Mrdb_sim.Sim.now sim);
  Mrdb_sim.Sim.run sim;
  let slowest =
    Float.max
      (Disk.stats_busy_us (Duplex.primary d))
      (Disk.stats_busy_us (Duplex.mirror d))
  in
  check (Alcotest.float 1e-6) "completes with slower mirror" slowest !done_at

let test_duplex_survives_primary_failure () =
  let sim, d = mk_duplex () in
  Duplex.write_page d ~page:7 (page_of_char 'q') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  Duplex.fail_primary d;
  let got = ref Bytes.empty in
  Duplex.read_page d ~page:7 (fun b -> got := ok_exn b);
  Mrdb_sim.Sim.run sim;
  check Alcotest.string "mirror serves reads" (Bytes.to_string (page_of_char 'q'))
    (Bytes.to_string !got)

let test_duplex_double_failure_raises () =
  let sim, d = mk_duplex () in
  Duplex.write_page d ~page:0 (page_of_char 'q') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  Duplex.fail_primary d;
  Duplex.fail_mirror d;
  Alcotest.check_raises "both failed"
    (Duplex.Both_mirrors_failed { op = "read_page"; page = 0 }) (fun () ->
      Duplex.read_page d ~page:0 (fun _ -> ()))

let test_disk_failed_semantics () =
  let sim, disk = mk_sim_disk () in
  Disk.write_page disk ~page:1 (page_of_char 'a') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  Disk.fail disk;
  check bool_t "failed" true (Disk.failed disk);
  (* Reads deliver Error through the normal completion path. *)
  let got = ref None in
  Disk.read_page disk ~page:1 (fun r -> got := Some r);
  Mrdb_sim.Sim.run sim;
  check bool_t "read errors" true (match !got with Some (Error _) -> true | _ -> false);
  (* Writes still complete (the electronics answer) without media effect. *)
  let completed = ref false in
  Disk.write_page disk ~page:2 (page_of_char 'b') (fun () -> completed := true);
  Mrdb_sim.Sim.run sim;
  check bool_t "write completes" true !completed;
  check bool_t "no media effect" false (Disk.is_written disk ~page:2)

let test_disk_transient_read_hook () =
  let sim, disk = mk_sim_disk () in
  Disk.write_page disk ~page:0 (page_of_char 'v') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  (* Fail exactly the first read; the second succeeds (transient). *)
  let reads = ref 0 in
  Disk.set_fault_hook disk
    (Some
       {
         Disk.on_read =
           (fun ~page:_ ->
             incr reads;
             if !reads = 1 then Some "injected" else None);
         on_crash_tear = (fun ~page:_ ~len:_ -> None);
       });
  let results = ref [] in
  Disk.read_page disk ~page:0 (fun r -> results := r :: !results);
  Disk.read_page disk ~page:0 (fun r -> results := r :: !results);
  Mrdb_sim.Sim.run sim;
  match List.rev !results with
  | [ Error "injected"; Ok b ] -> check Alcotest.char "retry sees data" 'v' (Bytes.get b 0)
  | _ -> Alcotest.fail "expected one transient error then success"

let test_disk_corrupt_page_flips_bytes () =
  let sim, disk = mk_sim_disk () in
  Disk.write_page disk ~page:3 (page_of_char 'x') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  Disk.corrupt_page disk ~page:3 ~at:10 ~len:4;
  let got = ref Bytes.empty in
  Disk.read_page disk ~page:3 (fun b -> got := ok_exn b);
  Mrdb_sim.Sim.run sim;
  check Alcotest.char "before span intact" 'x' (Bytes.get !got 9);
  check int_t "flipped" (Char.code 'x' lxor 0xFF) (Char.code (Bytes.get !got 10));
  check Alcotest.char "after span intact" 'x' (Bytes.get !got 14)

let test_disk_torn_write_on_crash () =
  let sim, disk = mk_sim_disk () in
  Disk.set_fault_hook disk
    (Some
       {
         Disk.on_read = (fun ~page:_ -> None);
         on_crash_tear = (fun ~page:_ ~len -> Some (len / 2));
       });
  Disk.write_page disk ~page:5 (page_of_char 'n') (fun () ->
      Alcotest.fail "crashed write must not complete");
  (* The write is in service from submit time; crash before it completes. *)
  Crash.machine ~sim ~disks:[ disk ] ();
  match Disk.with_page disk ~page:5 Bytes.copy with
  | None -> Alcotest.fail "torn write left no media trace"
  | Some b ->
      check Alcotest.char "prefix reached media" 'n' (Bytes.get b 0);
      check Alcotest.char "suffix lost" '\000' (Bytes.get b (page_bytes - 1))

let test_duplex_state_and_degraded_writes () =
  let sim = Mrdb_sim.Sim.create () in
  let trace = Mrdb_sim.Trace.create () in
  let params = Disk.default_log_params ~page_bytes in
  let d = Duplex.create ~trace sim ~params ~capacity_pages:32 in
  check bool_t "healthy" true (Duplex.state d = `Healthy);
  Duplex.write_page d ~page:0 (page_of_char 'a') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  check int_t "no degraded writes yet" 0 (Mrdb_sim.Trace.count trace "duplex_degraded_writes");
  Duplex.fail_mirror d;
  check bool_t "degraded" true (Duplex.state d = `Degraded);
  check int_t "mirror failure counted" 1 (Mrdb_sim.Trace.count trace "duplex_mirror_failures");
  Duplex.write_page d ~page:1 (page_of_char 'b') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  check int_t "degraded write counted" 1 (Mrdb_sim.Trace.count trace "duplex_degraded_writes");
  Duplex.fail_primary d;
  check bool_t "failed" true (Duplex.state d = `Failed)

let test_duplex_corrupt_copy_falls_back () =
  let sim = Mrdb_sim.Sim.create () in
  let trace = Mrdb_sim.Trace.create () in
  let params = Disk.default_log_params ~page_bytes in
  let d = Duplex.create ~trace sim ~params ~capacity_pages:32 in
  Duplex.write_page d ~page:2 (page_of_char 'g') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  Disk.corrupt_page (Duplex.primary d) ~page:2 ~at:0 ~len:8;
  let verify b = Bytes.get b 0 = 'g' in
  let got = ref Bytes.empty in
  Duplex.read_page d ~page:2 ~verify (fun b -> got := ok_exn b);
  Mrdb_sim.Sim.run sim;
  check Alcotest.char "mirror copy served" 'g' (Bytes.get !got 0);
  check int_t "checksum failure counted" 1
    (Mrdb_sim.Trace.count trace "duplex_read_checksum_failures");
  check int_t "fallback counted" 1 (Mrdb_sim.Trace.count trace "duplex_read_fallbacks")

let test_duplex_rebuild_resilvers () =
  let sim = Mrdb_sim.Sim.create () in
  let trace = Mrdb_sim.Trace.create () in
  let params = Disk.default_log_params ~page_bytes in
  let d = Duplex.create ~trace sim ~params ~capacity_pages:32 in
  for i = 0 to 9 do
    Duplex.write_page d ~page:i (page_of_char (Char.chr (Char.code 'a' + i))) (fun () -> ())
  done;
  Mrdb_sim.Sim.run sim;
  Duplex.fail_mirror d;
  (* Writes continue while the mirror is down... *)
  Duplex.write_page d ~page:10 (page_of_char 'k') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  let rebuilt = ref false in
  Duplex.rebuild d `Mirror (fun () -> rebuilt := true);
  (* ...and during the resilver itself. *)
  Duplex.write_page d ~page:11 (page_of_char 'l') (fun () -> ());
  Mrdb_sim.Sim.run sim;
  check bool_t "rebuild completed" true !rebuilt;
  check bool_t "healthy again" true (Duplex.state d = `Healthy);
  check int_t "rebuilds counted" 1 (Mrdb_sim.Trace.count trace "duplex_rebuilds");
  for i = 0 to 11 do
    let expect = Char.chr (Char.code 'a' + i) in
    match Disk.with_page (Duplex.mirror d) ~page:i (fun b -> Bytes.get b 0) with
    | Some c -> check Alcotest.char (Printf.sprintf "page %d resilvered" i) expect c
    | None -> Alcotest.failf "page %d missing on rebuilt mirror" i
  done

(* -- Stable memory --------------------------------------------------------- *)

let test_stable_mem_roundtrip () =
  let m = Stable_mem.create ~size:4096 () in
  Stable_mem.write m ~off:100 (Bytes.of_string "hello");
  check Alcotest.string "read back" "hello"
    (Bytes.to_string (Stable_mem.read m ~off:100 ~len:5))

let test_stable_mem_survives_crash () =
  let m = Stable_mem.create ~size:4096 () in
  Stable_mem.write m ~off:0 (Bytes.of_string "durable");
  Stable_mem.crash m;
  check Alcotest.string "survives" "durable"
    (Bytes.to_string (Stable_mem.read m ~off:0 ~len:7))

let test_stable_mem_bounds () =
  let m = Stable_mem.create ~size:128 () in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Stable_mem: access [120, 136) outside [0, 128)")
    (fun () -> Stable_mem.write m ~off:120 (Bytes.create 16))

let test_stable_mem_ints () =
  let m = Stable_mem.create ~size:128 () in
  Stable_mem.put_u32 m ~off:0 999;
  Stable_mem.put_i64 m ~off:8 (-5L);
  check int_t "u32" 999 (Stable_mem.get_u32 m ~off:0);
  check Alcotest.int64 "i64" (-5L) (Stable_mem.get_i64 m ~off:8)

let test_stable_mem_accounting () =
  let m = Stable_mem.create ~size:128 () in
  Stable_mem.write m ~off:0 (Bytes.create 10);
  ignore (Stable_mem.read m ~off:0 ~len:4);
  check int_t "written" 10 (Stable_mem.bytes_written m);
  check int_t "read" 4 (Stable_mem.bytes_read m)

let test_stable_blocks_alloc_free () =
  let m = Stable_mem.create ~size:4096 () in
  let a = Stable_mem.Blocks.create m ~region_off:0 ~block_bytes:256 ~count:4 in
  check int_t "free" 4 (Stable_mem.Blocks.free_count a);
  let b0 = Option.get (Stable_mem.Blocks.alloc a) in
  let b1 = Option.get (Stable_mem.Blocks.alloc a) in
  check bool_t "distinct" true (b0 <> b1);
  check int_t "free after 2" 2 (Stable_mem.Blocks.free_count a);
  Stable_mem.Blocks.free a b0;
  check int_t "free after release" 3 (Stable_mem.Blocks.free_count a);
  Alcotest.check_raises "double free"
    (Invalid_argument "Stable_mem.Blocks.free: block not allocated") (fun () ->
      Stable_mem.Blocks.free a b0)

let test_stable_blocks_exhaustion () =
  let m = Stable_mem.create ~size:1024 () in
  let a = Stable_mem.Blocks.create m ~region_off:0 ~block_bytes:512 ~count:2 in
  ignore (Stable_mem.Blocks.alloc a);
  ignore (Stable_mem.Blocks.alloc a);
  check bool_t "exhausted" true (Stable_mem.Blocks.alloc a = None)

let test_stable_blocks_offsets_disjoint () =
  let m = Stable_mem.create ~size:2048 () in
  let a = Stable_mem.Blocks.create m ~region_off:512 ~block_bytes:256 ~count:4 in
  let offs = List.init 4 (fun i -> Stable_mem.Blocks.offset_of_block a i) in
  check (Alcotest.list int_t) "expected offsets" [ 512; 768; 1024; 1280 ] offs

let test_stable_blocks_rebuild () =
  let m = Stable_mem.create ~size:1024 () in
  let a = Stable_mem.Blocks.create m ~region_off:0 ~block_bytes:128 ~count:8 in
  ignore (Stable_mem.Blocks.alloc a);
  ignore (Stable_mem.Blocks.alloc a);
  ignore (Stable_mem.Blocks.alloc a);
  Stable_mem.Blocks.rebuild_after_crash a ~live:[ 1; 5 ];
  check bool_t "1 live" true (Stable_mem.Blocks.is_allocated a 1);
  check bool_t "5 live" true (Stable_mem.Blocks.is_allocated a 5);
  check bool_t "0 freed" false (Stable_mem.Blocks.is_allocated a 0);
  check int_t "free count" 6 (Stable_mem.Blocks.free_count a)

(* -- Volatile --------------------------------------------------------------- *)

let test_volatile_get_set () =
  let e = Volatile.Epoch.create () in
  let v = Volatile.create e 42 in
  check int_t "get" 42 (Volatile.get v);
  Volatile.set v 7;
  check int_t "set" 7 (Volatile.get v)

let test_volatile_lost_on_crash () =
  let e = Volatile.Epoch.create () in
  let v = Volatile.name "txn-table" e 42 in
  Volatile.Epoch.crash e;
  check bool_t "not live" false (Volatile.is_live v);
  Alcotest.check_raises "lost" (Volatile.Lost "txn-table: volatile data lost in crash")
    (fun () -> ignore (Volatile.get v));
  Alcotest.check_raises "lost on set"
    (Volatile.Lost "txn-table: volatile data lost in crash") (fun () ->
      Volatile.set v 1)

let test_volatile_new_epoch_data_lives () =
  let e = Volatile.Epoch.create () in
  Volatile.Epoch.crash e;
  let v = Volatile.create e "fresh" in
  check Alcotest.string "fresh data fine" "fresh" (Volatile.get v);
  check int_t "crash count" 1 (Volatile.Epoch.crash_count e)

let () =
  Alcotest.run "mrdb_hw"
    [
      ( "disk",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_disk_write_read_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick test_disk_unwritten_reads_zero;
          Alcotest.test_case "writes take time" `Quick test_disk_write_takes_time;
          Alcotest.test_case "sequential cheaper" `Quick test_disk_sequential_cheaper_than_random;
          Alcotest.test_case "interleave beats rotation" `Quick
            test_disk_interleave_beats_full_rotation;
          Alcotest.test_case "FIFO service" `Quick test_disk_fifo_order;
          Alcotest.test_case "track write/read" `Quick test_disk_track_write_and_read;
          Alcotest.test_case "track faster than pages" `Quick test_disk_track_faster_than_pages;
          Alcotest.test_case "bounds checking" `Quick test_disk_bounds;
          Alcotest.test_case "stats" `Quick test_disk_stats;
        ] );
      ( "duplex",
        [
          Alcotest.test_case "writes both mirrors" `Quick test_duplex_writes_both_mirrors;
          Alcotest.test_case "completion waits for both" `Quick
            test_duplex_completion_waits_for_both;
          Alcotest.test_case "survives primary failure" `Quick
            test_duplex_survives_primary_failure;
          Alcotest.test_case "double failure raises" `Quick test_duplex_double_failure_raises;
          Alcotest.test_case "state + degraded writes" `Quick
            test_duplex_state_and_degraded_writes;
          Alcotest.test_case "corrupt copy falls back" `Quick
            test_duplex_corrupt_copy_falls_back;
          Alcotest.test_case "rebuild resilvers" `Quick test_duplex_rebuild_resilvers;
        ] );
      ( "faults",
        [
          Alcotest.test_case "failed disk semantics" `Quick test_disk_failed_semantics;
          Alcotest.test_case "transient read hook" `Quick test_disk_transient_read_hook;
          Alcotest.test_case "corrupt_page flips bytes" `Quick
            test_disk_corrupt_page_flips_bytes;
          Alcotest.test_case "torn write on crash" `Quick test_disk_torn_write_on_crash;
        ] );
      ( "stable_mem",
        [
          Alcotest.test_case "roundtrip" `Quick test_stable_mem_roundtrip;
          Alcotest.test_case "survives crash" `Quick test_stable_mem_survives_crash;
          Alcotest.test_case "bounds" `Quick test_stable_mem_bounds;
          Alcotest.test_case "int accessors" `Quick test_stable_mem_ints;
          Alcotest.test_case "access accounting" `Quick test_stable_mem_accounting;
          Alcotest.test_case "blocks alloc/free" `Quick test_stable_blocks_alloc_free;
          Alcotest.test_case "blocks exhaustion" `Quick test_stable_blocks_exhaustion;
          Alcotest.test_case "blocks offsets" `Quick test_stable_blocks_offsets_disjoint;
          Alcotest.test_case "blocks rebuild after crash" `Quick test_stable_blocks_rebuild;
        ] );
      ( "volatile",
        [
          Alcotest.test_case "get/set" `Quick test_volatile_get_set;
          Alcotest.test_case "lost on crash" `Quick test_volatile_lost_on_crash;
          Alcotest.test_case "new epoch lives" `Quick test_volatile_new_epoch_data_lives;
        ] );
    ]
