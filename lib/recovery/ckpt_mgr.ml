open Mrdb_storage
module Trace = Mrdb_sim.Trace
module Stable_layout = Mrdb_wal.Stable_layout
module Slb = Mrdb_wal.Slb
module Slt = Mrdb_wal.Slt
module Lock_mgr = Mrdb_txn.Lock_mgr
module Txn_core = Mrdb_txn.Txn
module Disk_map = Mrdb_ckpt.Disk_map
module Ckpt_queue = Mrdb_ckpt.Ckpt_queue
module Ckpt_image = Mrdb_ckpt.Ckpt_image
module Archive = Mrdb_archive.Archive

type deps = {
  log_redo : txn:Txn_core.t -> Relation.log_sink;
  drain : unit -> unit;
  layout : unit -> Stable_layout.t;
}

type t = {
  env : Recovery_env.t;
  deps : deps;
  restorer : Restorer.t;
  cat : Catalog.t;
  slt : Slt.t;
  slb : Slb.t;
  txn_mgr : Txn_core.Manager.mgr;
  lock_mgr : Lock_mgr.t;
  seq : int Addr.Partition_table.t;
  disk_map : Disk_map.t;
  ckpt_q : Ckpt_queue.t;
  mutable img_scratch : bytes; (* reusable checkpoint-image buffer *)
}

let create ~env ~deps ~restorer ~cat ~slt ~slb ~txn_mgr ~lock_mgr ~seq ~disk_map
    ~ckpt_q =
  { env; deps; restorer; cat; slt; slb; txn_mgr; lock_mgr; seq; disk_map;
    ckpt_q; img_scratch = Bytes.create 0 }

let queue c = c.ckpt_q
let disk_map c = c.disk_map

let update_wellknown ~layout ~cat =
  let cat_rel = Catalog.catalog_rel cat in
  let entries =
    List.map
      (fun (d : Catalog.partition_desc) ->
        { Wellknown.part = d.Catalog.part; ckpt_page = d.Catalog.ckpt_page;
          pages = d.Catalog.ckpt_page_count })
      cat_rel.Catalog.partitions
  in
  Wellknown.store layout entries

let on_checkpoint_request ~trace ~ckpt_q ?recorder (part : Addr.partition) trig =
  let reason =
    match trig with
    | Slt.Update_count ->
        Trace.incr trace "ckpt_req_update_count";
        Ckpt_queue.Update_count
    | Slt.Age ->
        Trace.incr trace "ckpt_req_age";
        Ckpt_queue.Age
  in
  (match recorder with
  | None -> ()
  | Some fr ->
      Mrdb_obs.Flight_recorder.ckpt_trigger fr ~segment:part.Addr.segment
        ~partition:part.Addr.partition ~by_age:(trig = Slt.Age));
  ignore (Ckpt_queue.request (ckpt_q ()) part reason)

let all_partition_descs cat =
  let acc = ref [] in
  Catalog.iter_relations (fun rel -> acc := rel.Catalog.partitions @ !acc) cat;
  !acc

let rebuild_disk_map ~disk_map ~cat =
  Disk_map.rebuild disk_map
    (List.filter_map
       (fun (d : Catalog.partition_desc) ->
         if d.Catalog.ckpt_page >= 0 then Some (d.Catalog.ckpt_page, d.Catalog.ckpt_page_count)
         else None)
       (all_partition_descs cat))

let page_bytes c = (Stable_layout.config (c.deps.layout ())).Stable_layout.log_page_bytes

(* One partition-checkpoint transaction (§2.4).  [`Deferred] means the
   relation lock is held by a live transaction; the request stays queued. *)
let run c (part : Addr.partition) =
  let trace = c.env.Recovery_env.trace in
  match Catalog.partition_desc c.cat part with
  | None ->
      (* Partition vanished (deallocated); nothing to do. *)
      Slt.checkpoint_finished c.slt part ~watermark:max_int;
      `Done
  | Some desc when not desc.Catalog.resident ->
      (* Not in memory: its durable state is already its recovery source —
         but its bin may hold records the durable image lacks; leave them
         (watermark 0 never resets a non-empty bin). *)
      Slt.checkpoint_finished c.slt part ~watermark:0;
      `Done
  | Some desc -> (
      let rel =
        match Catalog.relation_of_segment c.cat part.Addr.segment with
        | Some r -> r
        | None -> Mrdb_util.Fatal.invariant ~mod_:"Ckpt_mgr" "checkpoint of unowned segment"
      in
      let tx = Txn_core.Manager.begin_txn c.txn_mgr in
      match
        Lock_mgr.acquire c.lock_mgr ~txn:(Txn_core.id tx)
          (Lock_mgr.Relation rel.Catalog.rel_id) Lock_mgr.S
      with
      | Lock_mgr.Blocked | Lock_mgr.Deadlock ->
          ignore (Lock_mgr.release_all c.lock_mgr ~txn:(Txn_core.id tx));
          Txn_core.Manager.abort c.txn_mgr tx;
          Trace.incr trace "ckpt_deferred_lock_held";
          `Deferred
      | Lock_mgr.Granted ->
          (* Copy at memory speed, take the bin cut atomically with the
             watermark (no simulated time passes in between), then drop the
             lock immediately. *)
          let p =
            Segment.find_exn (Restorer.segment_of c.restorer part.Addr.segment)
              part.Addr.partition
          in
          (* The archive keeps images forever, so it gets a real copy; the
             disk image is encoded straight out of the partition's backing
             buffer into the reusable scratch — no simulated time passes
             between here and the submit-time capture inside
             [Disk.write_track], so the bytes are the locked state. *)
          let arch_snapshot =
            match c.env.Recovery_env.archiver with
            | Some _ -> Some (Partition.snapshot p)
            | None -> None
          in
          let watermark =
            match Addr.Partition_table.find_opt c.seq part with
            | Some n -> n
            | None -> 0
          in
          (match Slt.begin_checkpoint c.slt part with
          | `Cut | `Nothing_to_cut -> ()
          | `Shadow_busy ->
              (* A cut from a crash-interrupted checkpoint is still parked;
                 proceed without a new cut — checkpoint_finished falls back
                 to the watermark rule. *)
              Trace.incr trace "ckpt_shadow_busy");
          ignore (Lock_mgr.release_all c.lock_mgr ~txn:(Txn_core.id tx));
          let raw = Partition.unsafe_raw p in
          let total =
            Ckpt_image.pages_needed ~page_bytes:(page_bytes c)
              ~snapshot_bytes:(Bytes.length raw)
            * page_bytes c
          in
          (* Exact-size match: [write_track] takes the whole buffer, and all
             partitions of one instance share a configured size anyway. *)
          if Bytes.length c.img_scratch <> total then
            c.img_scratch <- Bytes.create total;
          let image = c.img_scratch in
          ignore
            (Ckpt_image.encode_into ~page_bytes:(page_bytes c) ~part ~watermark
               ~snapshot:raw image
              : int);
          let pages = Bytes.length image / page_bytes c in
          let old =
            if desc.Catalog.ckpt_page >= 0 then
              Some (desc.Catalog.ckpt_page, desc.Catalog.ckpt_page_count)
            else None
          in
          let first_page =
            match Disk_map.allocate c.disk_map ~pages with
            | Some p -> p
            | None -> Mrdb_util.Fatal.invariant ~mod_:"Ckpt_mgr" "checkpoint disk full"
          in
          (* §2.4 step 5: log the catalog/disk-map updates before the
             partition is written. *)
          Catalog.set_ckpt_location c.cat ~log:(c.deps.log_redo ~txn:tx) part
            ~page:first_page ~pages;
          let durable = ref false in
          Mrdb_hw.Disk.write_track (c.env.Recovery_env.ckpt_disk ()) ~first_page
            image (fun () -> durable := true);
          Recovery_env.pump_until c.env (fun () -> !durable);
          (match (c.env.Recovery_env.archiver, arch_snapshot) with
          | Some a, Some snapshot ->
              Archive.on_ckpt_image a
                { Ckpt_image.part; watermark; snapshot }
                ~page_bytes:(page_bytes c)
          | _ -> ());
          (* Commit installs the new location atomically. *)
          Slb.Region.commit (Slb.region c.slb 0) ~txn_id:(Txn_core.id tx);
          Txn_core.Manager.commit c.txn_mgr tx;
          c.deps.drain ();
          (match old with
          | Some (p0, n) -> Disk_map.release c.disk_map ~page:p0 ~pages:n
          | None -> ());
          if part.Addr.segment = Catalog.catalog_segment_id then
            update_wellknown ~layout:(c.deps.layout ()) ~cat:c.cat;
          Slt.checkpoint_finished c.slt part ~watermark;
          Trace.incr trace "checkpoints";
          `Done)

let process c =
  let completed = ref 0 in
  let continue = ref true in
  while !continue do
    match Ckpt_queue.next_requested c.ckpt_q with
    | None -> continue := false
    | Some entry -> (
        match run c entry.Ckpt_queue.part with
        | `Done ->
            Ckpt_queue.finish c.ckpt_q entry.Ckpt_queue.part;
            incr completed
        | `Deferred ->
            Ckpt_queue.defer c.ckpt_q entry.Ckpt_queue.part;
            continue := false)
  done;
  !completed

let pending c = Ckpt_queue.pending c.ckpt_q

(* drop_relation's reclamation of a partition's recovery-side resources:
   queued checkpoint request, partition bin, checkpoint-disk run, sequence
   counter.  Idempotent — re-done by recovery if the caller crashes
   mid-way. *)
let release_partition c (d : Catalog.partition_desc) =
  Ckpt_queue.cancel c.ckpt_q d.Catalog.part;
  Slt.drop_partition c.slt d.Catalog.part;
  if d.Catalog.ckpt_page >= 0 then
    Disk_map.release c.disk_map ~page:d.Catalog.ckpt_page
      ~pages:d.Catalog.ckpt_page_count;
  Addr.Partition_table.remove c.seq d.Catalog.part
