open Mrdb_storage
module Trace = Mrdb_sim.Trace
module Slt = Mrdb_wal.Slt
module Log_record = Mrdb_wal.Log_record
module Log_page = Mrdb_wal.Log_page
module Ckpt_image = Mrdb_ckpt.Ckpt_image
module Archive = Mrdb_archive.Archive

type t = {
  env : Recovery_env.t;
  slt : Slt.t;
  cat : Catalog.t;
  seq : int Addr.Partition_table.t;
  segments : (int, Segment.t) Hashtbl.t;
  mutable sweeping : bool;
      (* Timeline attribution: restores issued from background_step are
         charged to Background_sweep, everything else to On_demand_restore. *)
}

let create ~env ~slt ~cat ~seq ~segments =
  { env; slt; cat; seq; segments; sweeping = false }

let segment_of r seg_id =
  match Hashtbl.find_opt r.segments seg_id with
  | Some s -> s
  | None ->
      let s =
        Segment.create ~id:seg_id ~partition_bytes:r.env.Recovery_env.partition_bytes
      in
      (* Claim the partition numbers the catalog already assigns to this
         segment before any allocation: a fresh post-crash insert must not
         collide with a not-yet-recovered partition's number (and seq
         space). *)
      (match Catalog.relation_of_segment r.cat seg_id with
      | Some rel ->
          List.iter
            (fun (d : Catalog.partition_desc) ->
              if d.Catalog.part.Addr.segment = seg_id then
                Segment.reserve s d.Catalog.part.Addr.partition)
            rel.Catalog.partitions
      | None -> ());
      Hashtbl.add r.segments seg_id s;
      s

(* Checkpoint-disk track read with one bounded retry: transient read
   errors (recoverable ECC glitches) vanish on the second attempt; a
   persistent error is the caller's cue to fall back to the archive. *)
let read_ckpt_track env ~first_page ~pages k =
  let disk = env.Recovery_env.ckpt_disk () in
  Mrdb_hw.Disk.read_track disk ~first_page ~pages (function
    | Ok data -> k (Ok data)
    | Error _ ->
        Trace.incr env.Recovery_env.trace "restorer_ckpt_read_retries";
        Mrdb_hw.Disk.read_track disk ~first_page ~pages k)

(* Build a partition from a checkpoint image held in [b] (a track buffer
   or a standby's peeked pages): CRC checked in place, the image must
   belong to [part], and the partition takes the one copy out of [b].  A
   CRC-valid image whose snapshot is structurally corrupt is an [Error]
   like any other bad image. *)
let partition_of_image ~(part : Addr.partition) b =
  match Ckpt_image.check b with
  | Error e -> Error e
  | Ok v when not (Addr.equal_partition v.Ckpt_image.v_part part) ->
      Error "checkpoint image for wrong partition"
  | Ok v -> (
      match Partition.of_snapshot ~pos:v.Ckpt_image.pos ~len:v.Ckpt_image.len b with
      | p -> Ok (p, v.Ckpt_image.v_watermark)
      | exception Mrdb_util.Fatal.Invariant { what; _ } -> Error what)

(* Fetch one partition's restore inputs: the checkpoint image and the log
   chain are read in parallel (different disks), the image with one
   bounded retry and — when the checkpoint disk cannot produce a valid one
   (media failure) — the newest archived copy, which is exactly the one
   the catalog references since the archive saw every image ever written.
   A never-checkpointed partition starts empty at watermark 0.  Serves
   both data partitions and the restart-time catalog bootstrap. *)
let fetch env ~slt ~(part : Addr.partition) ~first_page ~pages =
  let base = ref None and chunks = ref None in
  let fallback reason =
    let fail msg = Mrdb_util.Fatal.invariant ~mod_:"Restorer" msg in
    match Option.map (fun a -> Archive.latest_image a part) env.Recovery_env.archiver with
    | None -> fail ("corrupt checkpoint image: " ^ reason)
    | Some None -> fail ("checkpoint image lost and not archived: " ^ reason)
    | Some (Some image) -> (
        Trace.incr env.Recovery_env.trace "media_recoveries";
        match partition_of_image ~part image with
        | Ok base -> base
        | Error e -> fail ("corrupt archived image: " ^ e))
  in
  if first_page < 0 then
    base :=
      Some
        ( Partition.create ~size:env.Recovery_env.partition_bytes
            ~segment:part.Addr.segment ~partition:part.Addr.partition,
          0 )
  else
    read_ckpt_track env ~first_page ~pages (fun result ->
        base :=
          Some
            (match result with
            | Error e -> fallback ("media read failed: " ^ e)
            | Ok data -> (
                match partition_of_image ~part data with
                | Ok b -> b
                | Error e -> fallback e)));
  Slt.records_for_recovery slt part (fun result ->
      match result with
      | Ok cs -> chunks := Some cs
      | Error e -> Mrdb_util.Fatal.invariant ~mod_:"Restorer" ("log recovery failed: " ^ e));
  Recovery_env.pump_until env (fun () -> !base <> None && !chunks <> None);
  match (!base, !chunks) with
  | Some (partition, watermark), Some chunks -> (partition, watermark, chunks)
  | _ -> Mrdb_util.Fatal.invariant ~mod_:"Restorer" "fetch: pump returned early"

(* The REDO kernel: walk the recovered frames in stream order, skip those
   at or below the watermark (already in the image — idempotent replay
   for both record families), decode each remaining frame exactly once
   and apply it.  Returns the highest sequence number seen.  Command
   records need a dispatch target: the relation runtime [rel] when the
   caller supplies one (restart recovery; forced only at the first
   command frame), else schema-free partition-cell patching (the standby
   audit).  [on_applied] lets the catalogued-partition path bump its
   trace counter without the catalog bootstrap inheriting it. *)
let apply_records ~partition ?rel ~watermark ?(on_applied = fun () -> ()) chunks =
  let max_seq = ref watermark in
  let target =
    lazy
      (match rel with
      | Some rel -> Mrdb_logical.Dispatch.Rel { rel = Lazy.force rel; part = partition }
      | None -> Mrdb_logical.Dispatch.Part partition)
  in
  List.iter
    (fun (c : Log_page.chunk) ->
      Log_page.iter_frames c.Log_page.buf ~pos:c.Log_page.pos ~used:c.Log_page.len
        ~f:(fun buf ~pos ~len ->
          let seq = Log_record.peek_seq buf ~pos in
          if seq > watermark then begin
            (match (Log_record.decode_at buf ~pos ~len).Log_record.op with
            | Log_record.Physical op -> Part_op.apply partition op
            | Log_record.Command cmd ->
                Mrdb_logical.Replay.apply_cmd ~target:(Lazy.force target) cmd);
            on_applied ()
          end;
          if seq > !max_seq then max_seq := seq))
    chunks;
  !max_seq

(* Restore one partition if it is not resident: fetch its image and
   chain, then apply the records above the watermark in original order. *)
let ensure_partition r part =
  let env = r.env in
  let desc =
    match Catalog.partition_desc r.cat part with
    | Some d -> d
    | None ->
        Mrdb_util.Fatal.invariant ~mod_:"Restorer"
          (Format.asprintf "partition %a not catalogued" Addr.pp_partition part)
  in
  if not desc.Catalog.resident then begin
    let t0 = Mrdb_sim.Sim.now env.Recovery_env.sim in
    let partition, watermark, chunks =
      fetch env ~slt:r.slt ~part ~first_page:desc.Catalog.ckpt_page
        ~pages:desc.Catalog.ckpt_page_count
    in
    (* Command frames replay through a relation runtime: a private scratch
       segment holding just this partition, wrapped in a [Relation.t]
       carrying the catalogued schema — private so replay-time reads never
       perturb the real segment table mid-recovery. *)
    let rel =
      lazy
        (match Catalog.relation_of_segment r.cat part.Addr.segment with
        | None ->
            Mrdb_util.Fatal.invariant ~mod_:"Restorer"
              "command records for a segment no relation owns"
        | Some d ->
            let seg =
              Segment.create ~id:part.Addr.segment
                ~partition_bytes:env.Recovery_env.partition_bytes
            in
            Segment.install seg partition;
            Relation.create ~id:d.Catalog.rel_id ~name:d.Catalog.rel_name
              ~schema:d.Catalog.schema ~segment:seg)
    in
    let applied = ref 0 in
    let max_seq =
      apply_records ~partition ~rel ~watermark
        ~on_applied:(fun () ->
          incr applied;
          Trace.incr env.Recovery_env.trace "recovery_records_applied")
        chunks
    in
    Segment.install (segment_of r part.Addr.segment) partition;
    Addr.Partition_table.replace r.seq part max_seq;
    Catalog.set_resident r.cat part true;
    Trace.incr env.Recovery_env.trace "partitions_recovered";
    Trace.incr env.Recovery_env.trace "restorer_partitions_restored";
    match env.Recovery_env.obs with
    | None -> ()
    | Some obs ->
        let dur_us = Mrdb_sim.Sim.now env.Recovery_env.sim -. t0 in
        Mrdb_obs.Metrics.observe_us (Mrdb_obs.Obs.restore_latency obs) dur_us;
        Mrdb_obs.Timeline.add
          (Mrdb_obs.Obs.timeline obs)
          (if r.sweeping then Mrdb_obs.Timeline.Background_sweep
           else Mrdb_obs.Timeline.On_demand_restore)
          ~dur_us;
        Mrdb_obs.Flight_recorder.partition_restored
          (Mrdb_obs.Obs.recorder obs)
          ~segment:part.Addr.segment ~partition:part.Addr.partition
          ~records:!applied
  end

let ensure_segment r seg_id =
  match Catalog.relation_of_segment r.cat seg_id with
  | None -> ()
  | Some rel ->
      List.iter
        (fun (d : Catalog.partition_desc) ->
          if d.Catalog.part.Addr.segment = seg_id then ensure_partition r d.Catalog.part)
        rel.Catalog.partitions

(* -- the background sweep (§2.5) ------------------------------------------- *)

let all_partition_descs r =
  let acc = ref [] in
  Catalog.iter_relations (fun rel -> acc := rel.Catalog.partitions @ !acc) r.cat;
  !acc

let resident_fraction r =
  let descs = all_partition_descs r in
  if descs = [] then 1.0
  else
    float_of_int (List.length (List.filter (fun d -> d.Catalog.resident) descs))
    /. float_of_int (List.length descs)

let background_step r =
  let next =
    List.find_opt (fun (d : Catalog.partition_desc) -> not d.Catalog.resident)
      (List.sort
         (fun (a : Catalog.partition_desc) b ->
           Addr.compare_partition a.Catalog.part b.Catalog.part)
         (all_partition_descs r))
  in
  match next with
  | None -> false
  | Some d ->
      r.sweeping <- true;
      Fun.protect
        ~finally:(fun () -> r.sweeping <- false)
        (fun () -> ensure_partition r d.Catalog.part);
      true

let sweep r = while background_step r do () done

(* -- restart-time catalog bootstrap (§2.5) ---------------------------------- *)

let restore_catalog env ~slt ~entries =
  let cat_segment =
    Segment.create ~id:Catalog.catalog_segment_id
      ~partition_bytes:env.Recovery_env.partition_bytes
  in
  let catalog_seq =
    List.fold_left
      (fun acc (e : Wellknown.entry) ->
        let part = e.Wellknown.part in
        let partition, watermark, chunks =
          fetch env ~slt ~part ~first_page:e.Wellknown.ckpt_page
            ~pages:e.Wellknown.pages
        in
        let max_seq = apply_records ~partition ~watermark chunks in
        Segment.install cat_segment partition;
        (part, max_seq) :: acc)
      [] entries
  in
  (cat_segment, catalog_seq)

let drop_uncatalogued_bins ~slt ~cat =
  List.iter
    (fun part ->
      if Catalog.partition_desc cat part = None then Slt.drop_partition slt part)
    (Slt.active_partitions slt)
