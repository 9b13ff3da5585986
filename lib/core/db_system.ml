open Mrdb_storage
open Db_state
module Trace = Mrdb_sim.Trace
module Slb = Mrdb_wal.Slb
module Slt = Mrdb_wal.Slt
module Log_record = Mrdb_wal.Log_record
module Cmd_op = Mrdb_logical.Cmd_op
module Replay = Mrdb_logical.Replay
module Codec_policy = Mrdb_logical.Codec_policy
module Lock_mgr = Mrdb_txn.Lock_mgr
module Txn_core = Mrdb_txn.Txn
module Log_sorter = Mrdb_recovery.Log_sorter
module Ckpt_mgr = Mrdb_recovery.Ckpt_mgr
module Recovery_mgr = Mrdb_recovery.Recovery_mgr

(* -- logging plumbing ------------------------------------------------------ *)

let is_index_segment v seg = Hashtbl.mem v.overlay_by_segment seg

let tag_for v (part : Addr.partition) =
  if part.Addr.segment = Catalog.catalog_segment_id then Log_record.Catalog_op
  else if is_index_segment v part.Addr.segment then Log_record.Index_op
  else Log_record.Relation_op

(* -- logical command derivation -------------------------------------------- *)

(* Derive a command record from the physical images when the operation on
   an all-Int relation partition is expressible as one: a whole-tuple
   insert, or an update that changed exactly one cell — emitted as a
   delta, which zigzag-varints far smaller than an absolute i64.  Any
   other shape (deletes, multi-cell updates, out-of-range values) keeps
   its physical record; both families share one stream and one per-
   partition seq space, so replay interleaves them freely. *)

let cell_bytes = 9

let cell_eq a b off =
  let rec go i =
    i = cell_bytes || (Bytes.get a (off + i) = Bytes.get b (off + i) && go (i + 1))
  in
  go 0

let delta_cmd ~rel_id ~slot ~data ~old =
  let cols = Bytes.length data / cell_bytes in
  let changed = ref (-1) in
  let viable = ref true in
  (let c = ref 0 in
   while !viable && !c < cols do
     let off = !c * cell_bytes in
     if not (cell_eq data old off) then
       if !changed >= 0 then viable := false else changed := !c;
     incr c
   done);
  if (not !viable) || !changed < 0 then None
  else
    let c = !changed in
    let off = c * cell_bytes in
    if Bytes.get data off <> '\000' || Bytes.get old off <> '\000' then None
    else
      let delta =
        Int64.sub (Mrdb_util.Codec.get_i64 data (off + 1))
          (Mrdb_util.Codec.get_i64 old (off + 1))
      in
      if not (Cmd_op.arg_representable delta) then None
      else if c < Replay.folded_cols then
        Some (Cmd_op.make ~op_id:(Replay.op_add_col0 + c) ~rel_id ~key:slot
                ~args:[| delta |])
      else
        Some (Cmd_op.make ~op_id:Replay.op_add_i64 ~rel_id ~key:slot
                ~args:[| Int64.of_int c; delta |])

let insert_cmd ~rel_id ~slot ~data =
  let len = Bytes.length data in
  let cols = len / cell_bytes in
  let args = Array.make cols 0L in
  let viable = ref true in
  (let c = ref 0 in
   while !viable && !c < cols do
     let off = !c * cell_bytes in
     if Bytes.get data off <> '\000' then viable := false
     else begin
       let v = Mrdb_util.Codec.get_i64 data (off + 1) in
       if Cmd_op.arg_representable v then args.(!c) <- v else viable := false
     end;
     incr c
   done);
  if !viable then
    Some (Cmd_op.make ~op_id:Replay.op_insert_ints ~rel_id ~key:slot ~args)
  else None

let cmd_of_images v (part : Addr.partition) ~(redo : Part_op.t) ~(undo : Part_op.t) =
  match Hashtbl.find_opt v.cmd_rel_by_seg part.Addr.segment with
  | None -> None
  | Some rel_id -> (
      match (redo, undo) with
      | Part_op.Update { slot; data }, Part_op.Update { data = old; _ }
        when Bytes.length data = Bytes.length old
             && Bytes.length data mod cell_bytes = 0 -> (
          match delta_cmd ~rel_id ~slot ~data ~old with
          | Some cmd -> Some (cmd, `Update)
          | None -> None)
      | Part_op.Insert { slot; data }, _
        when Bytes.length data mod cell_bytes = 0 -> (
          match insert_cmd ~rel_id ~slot ~data with
          | Some cmd -> Some (cmd, `Insert)
          | None -> None)
      | _ -> None)

let next_seq v part =
  let c =
    match Addr.Partition_table.find v.seq part with
    | c -> c
    | exception Not_found -> 0
  in
  Addr.Partition_table.replace v.seq part (c + 1);
  c + 1

let drain ctx = Log_sorter.drain (Recovery_mgr.sorter ctx.recovery)

(* Forward declaration dance: logging a user record may require registering
   its partition in the catalog, which itself logs records under a system
   transaction. *)
let rec log_redo_raw ctx v ?(exec = 0) ~txn_id (part : Addr.partition) op =
  if part.Addr.segment <> Catalog.catalog_segment_id then ensure_registered ctx v part;
  let bin_index = Slt.bin_index_of v.slt part in
  let seq = next_seq v part in
  let record = Log_record.make ~tag:(tag_for v part) ~bin_index ~txn_id ~seq ~op in
  Slb.Region.append (Slb.region v.slb exec) ~txn_id record;
  Trace.incr ctx.trace "log_records";
  Trace.add ctx.trace "codec_log_bytes" (Log_record.encoded_size record)

and ensure_registered ctx v part =
  if Catalog.partition_desc v.cat part = None then
    with_system_txn ctx v (fun sink ->
        ignore (Catalog.register_partition v.cat ~log:sink part))

and with_system_txn : 'a. ctx -> vol -> (Relation.log_sink -> 'a) -> 'a =
 fun ctx v f ->
  let tx = Txn_core.Manager.begin_txn v.txn_mgr in
  let sink part ~redo ~undo:_ = log_redo_raw ctx v ~txn_id:(Txn_core.id tx) part redo in
  let result = f sink in
  Slb.Region.commit (Slb.region v.slb 0) ~txn_id:(Txn_core.id tx);
  Txn_core.Manager.commit v.txn_mgr tx;
  drain ctx;
  result

let user_sink ctx v tx : Relation.log_sink =
  (* One closure per transaction, cached on the transaction itself: DML
     operations ask for the sink once per call, and a debit/credit
     transaction makes several. *)
  match Txn_core.sink tx with
  | Some s -> s
  | None ->
      let region = Slb.region v.slb (Txn_core.executor tx) in
      let txn_id = Txn_core.id tx in
      let staged =
        match ctx.cfg.Config.commit_mode with
        | Config.Group _ -> true
        | Config.Instant | Config.Disk_force -> false
      in
      let s (part : Addr.partition) ~redo ~undo =
        if part.Addr.segment <> Catalog.catalog_segment_id then
          ensure_registered ctx v part;
        Txn_core.Manager.record_update v.txn_mgr tx part ~redo ~undo;
        let bin_index = Slt.bin_index_of v.slt part in
        let seq = next_seq v part in
        (* The transaction's appends land in its executor's own SLB region —
           the whole point of the striping (lint R7 confines this call
           site).  Group mode stages in volatile memory instead; the group
           flush materializes the chain into the same region. *)
        let physical () =
          Log_record.make ~tag:(tag_for v part) ~bin_index ~txn_id ~seq ~op:redo
        in
        let record =
          (* The mode check keeps the default [Physical] hot path free of
             derivation work (and byte-identical — the determinism goldens
             lock this). *)
          if Codec_policy.mode v.codec = Codec_policy.Physical then physical ()
          else
            match cmd_of_images v part ~redo ~undo with
            | Some (cmd, kind)
              when Codec_policy.use_command v.codec part ~kind
                     ~phys_size:(Part_op.encoded_size redo)
                     ~cmd_size:(Cmd_op.encoded_size cmd) ->
                Trace.incr ctx.trace "codec_cmd_records";
                Log_record.make_cmd ~bin_index ~txn_id ~seq ~cmd
            | Some _ | None -> physical ()
        in
        if staged then Slb.Region.stage_append region ~txn_id record
        else Slb.Region.append region ~txn_id record;
        Trace.incr ctx.trace "log_records";
        Trace.add ctx.trace "codec_log_bytes" (Log_record.encoded_size record)
      in
      Txn_core.set_sink tx s;
      s

let update_wellknown ctx v =
  Ckpt_mgr.update_wellknown ~layout:(ctx.layout ()) ~cat:v.cat

(* -- DDL ------------------------------------------------------------------- *)

let create_relation ctx v ~name ~schema =
  with_system_txn ctx v (fun sink ->
      let desc, seg_id = Catalog.create_relation v.cat ~log:sink ~name ~schema in
      ignore (segment_of ctx seg_id);
      let rt =
        {
          desc;
          relation = Relation.create ~id:desc.Catalog.rel_id ~name ~schema
              ~segment:(segment_of ctx seg_id);
          index_insts = [];
          indices_attached = true;
        }
      in
      note_cmd_capable v desc;
      Hashtbl.add v.rels name rt);
  update_wellknown ctx v;
  Trace.incr ctx.trace "relations_created"

let create_index ctx v ~rel ~name ~kind ~key_column =
  let rt = rt_of ctx v rel in
  ensure_rel_resident ctx v rt;
  let key_column_idx =
    try Schema.column_index rt.desc.Catalog.schema key_column
    with Not_found -> Mrdb_util.Fatal.misuse ("Db.create_index: unknown column " ^ key_column)
  in
  with_system_txn ctx v (fun sink ->
      let idx, seg_id =
        Catalog.add_index v.cat ~log:sink ~rel:rt.desc ~name ~kind
          ~key_column:key_column_idx
      in
      let segment = segment_of ctx seg_id in
      let key_type = Schema.column_type rt.desc.Catalog.schema key_column_idx in
      let inst =
        match kind with
        | Catalog.Ttree ->
            Tt
              (Mrdb_index.T_tree.create ~segment ~log:sink ~key_type
                 ~max_items:ctx.cfg.Config.ttree_max_items ())
        | Catalog.Lhash ->
            Lh
              (Mrdb_index.Linear_hash.create ~segment ~log:sink ~key_type
                 ~node_capacity:ctx.cfg.Config.lhash_node_capacity ())
      in
      Hashtbl.replace v.overlay_by_segment seg_id inst;
      (* Backfill from existing tuples. *)
      Relation.iter
        (fun addr tuple ->
          inst_insert inst ~log:sink (Tuple.field tuple key_column_idx) addr)
        rt.relation;
      rt.index_insts <- rt.index_insts @ [ (idx, inst) ]);
  update_wellknown ctx v;
  Trace.incr ctx.trace "indices_created"

let drop_relation ctx v ~name =
  let desc =
    match Catalog.find_relation v.cat name with
    | Some d -> d
    | None -> raise (Unknown_relation name)
  in
  (* Take an exclusive lock so no live transaction holds the relation. *)
  let tx = Txn_core.Manager.begin_txn v.txn_mgr in
  (match
     Lock_mgr.acquire v.lock_mgr ~txn:(Txn_core.id tx)
       (Lock_mgr.Relation desc.Catalog.rel_id) Lock_mgr.X
   with
  | Lock_mgr.Granted -> ()
  | Lock_mgr.Blocked | Lock_mgr.Deadlock ->
      ignore (Lock_mgr.release_all v.lock_mgr ~txn:(Txn_core.id tx));
      Txn_core.Manager.abort v.txn_mgr tx;
      raise (Aborted "drop_relation: relation is in use"));
  let partitions = desc.Catalog.partitions in
  (* Atomic step: catalog deletions commit in one system transaction. *)
  let sink part ~redo ~undo:_ = log_redo_raw ctx v ~txn_id:(Txn_core.id tx) part redo in
  Catalog.drop_relation v.cat ~log:sink desc;
  Slb.Region.commit (Slb.region v.slb 0) ~txn_id:(Txn_core.id tx);
  Txn_core.Manager.commit v.txn_mgr tx;
  ignore (Lock_mgr.release_all v.lock_mgr ~txn:(Txn_core.id tx));
  drain ctx;
  (* Resource reclamation (idempotent; re-done by recovery if we crash
     mid-way): bins, checkpoint-disk runs, memory, runtimes. *)
  List.iter
    (Ckpt_mgr.release_partition (Recovery_mgr.ckpt_mgr ctx.recovery))
    partitions;
  Hashtbl.remove v.segments desc.Catalog.rel_segment;
  List.iter
    (fun (i : Catalog.index_desc) ->
      Hashtbl.remove v.segments i.Catalog.idx_segment;
      Hashtbl.remove v.overlay_by_segment i.Catalog.idx_segment)
    desc.Catalog.indices;
  Hashtbl.remove v.rels name;
  Trace.incr ctx.trace "relations_dropped"
