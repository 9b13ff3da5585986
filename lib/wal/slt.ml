open Mrdb_storage

exception Bin_table_full of { partition : Addr.partition }
exception Record_too_large of { partition : Addr.partition; bytes : int }

type trigger = Update_count | Age

type t = {
  layout : Stable_layout.t;
  log_disk : Log_disk.t;
  n_update : int;
  age_grace_pages : int;
  on_checkpoint_request : Addr.partition -> trigger -> unit;
  bins_by_part : Partition_bin.t Addr.Partition_table.t;
  mutable bins_by_idx : Partition_bin.t option array;
  first_lsn_list : Addr.partition Mrdb_util.Pqueue.t; (* keyed by first LSN; lazy deletion *)
  requested : unit Addr.Partition_table.t; (* checkpoint already requested *)
  mutable pending_writes : int;
  mutable recorder : Mrdb_obs.Flight_recorder.t option;
}

let create ~layout ~log_disk ?(n_update = 1000) ?age_grace_pages
    ~on_checkpoint_request () =
  let cfg = Stable_layout.config layout in
  let age_grace_pages =
    match age_grace_pages with
    | Some g -> g
    | None -> Stdlib.max 1 (Log_disk.window_pages log_disk / 8)
  in
  {
    layout;
    log_disk;
    n_update;
    age_grace_pages;
    on_checkpoint_request;
    bins_by_part = Addr.Partition_table.create 256;
    bins_by_idx = Array.make cfg.Stable_layout.bin_count None;
    first_lsn_list = Mrdb_util.Pqueue.create ();
    requested = Addr.Partition_table.create 16;
    pending_writes = 0;
    recorder = None;
  }

let set_recorder t recorder = t.recorder <- recorder

let layout t = t.layout
let log_disk t = t.log_disk

let push_first_lsn t bin =
  let lsn = Partition_bin.oldest_lsn bin in
  if lsn >= 0L then
    Mrdb_util.Pqueue.push t.first_lsn_list ~priority:(Int64.to_float lsn)
      (Partition_bin.partition bin)

let recover ~layout ~log_disk ?n_update ?age_grace_pages ~on_checkpoint_request () =
  let t = create ~layout ~log_disk ?n_update ?age_grace_pages ~on_checkpoint_request () in
  let used = Stable_layout.bin_count_used layout in
  let live_pool_blocks = ref [] in
  for idx = 0 to used - 1 do
    match Partition_bin.load layout ~idx with
    | None -> ()
    | Some bin ->
        Addr.Partition_table.replace t.bins_by_part (Partition_bin.partition bin) bin;
        t.bins_by_idx.(idx) <- Some bin;
        push_first_lsn t bin;
        live_pool_blocks :=
          Partition_bin.owned_blocks layout ~idx @ !live_pool_blocks
  done;
  Mrdb_hw.Stable_mem.Blocks.rebuild_after_crash (Stable_layout.page_pool layout)
    ~live:!live_pool_blocks;
  (* Pages that were in flight when the crash hit lost their disk writes;
     their images survive in stable memory, so re-issue them now (otherwise
     the in-flight slots would stay occupied forever). *)
  Addr.Partition_table.iter
    (fun _ bin ->
      List.iter
        (fun lsn ->
          match Partition_bin.read_inflight bin ~lsn with
          | None -> ()
          | Some _ when not (Log_disk.in_window t.log_disk lsn) ->
              (* Aged out of the window while in flight: its partition was
                 checkpointed (age trigger), the page is only archive
                 material — release the buffer. *)
              Partition_bin.flush_complete bin ~lsn
          | Some image ->
              t.pending_writes <- t.pending_writes + 1;
              Log_disk.write_page t.log_disk ~lsn image (fun () ->
                  t.pending_writes <- t.pending_writes - 1;
                  Partition_bin.flush_complete bin ~lsn))
        (Partition_bin.inflight_lsns bin))
    t.bins_by_part;
  t

let find_bin t part = Addr.Partition_table.find_opt t.bins_by_part part

let bin_index_of t part =
  match find_bin t part with
  | Some bin -> Partition_bin.idx bin
  | None ->
      let idx = Stable_layout.bin_count_used t.layout in
      if idx >= Array.length t.bins_by_idx then raise (Bin_table_full { partition = part });
      let bin = Partition_bin.activate t.layout ~idx part in
      Stable_layout.set_bin_count_used t.layout (idx + 1);
      Addr.Partition_table.replace t.bins_by_part part bin;
      t.bins_by_idx.(idx) <- Some bin;
      idx

let bin_of_index t idx =
  if idx < 0 || idx >= Array.length t.bins_by_idx then None else t.bins_by_idx.(idx)

(* -- age trigger ----------------------------------------------------------- *)

let age_boundary t =
  Int64.add
    (Int64.sub (Log_disk.next_lsn t.log_disk)
       (Int64.of_int (Log_disk.window_pages t.log_disk)))
    (Int64.of_int t.age_grace_pages)

let oldest_first_lsn t =
  let rec clean () =
    match Mrdb_util.Pqueue.peek t.first_lsn_list with
    | None -> None
    | Some (prio, part) -> (
        match find_bin t part with
        | Some bin
          when Partition_bin.oldest_lsn bin >= 0L
               && Int64.to_float (Partition_bin.oldest_lsn bin) = prio ->
            Some (Partition_bin.oldest_lsn bin, part)
        | Some _ | None ->
            ignore (Mrdb_util.Pqueue.pop t.first_lsn_list);
            clean ())
  in
  clean ()

let request_checkpoint t part trigger =
  if not (Addr.Partition_table.mem t.requested part) then begin
    Addr.Partition_table.replace t.requested part ();
    t.on_checkpoint_request part trigger
  end

let check_age_triggers t =
  let boundary = age_boundary t in
  let rec loop () =
    match oldest_first_lsn t with
    | Some (lsn, part) when lsn < boundary ->
        request_checkpoint t part Age;
        (* Pop so the next-oldest is also examined; the entry is re-pushed
           if the partition is still active after its checkpoint. *)
        ignore (Mrdb_util.Pqueue.pop t.first_lsn_list);
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let window_pressure t =
  match oldest_first_lsn t with
  | None -> 0.0
  | Some (first, _) ->
      let age = Int64.to_float (Int64.sub (Log_disk.next_lsn t.log_disk) first) in
      age /. float_of_int (Log_disk.window_pages t.log_disk)

(* -- sealing --------------------------------------------------------------- *)

(* Backpressure: when in-flight slots or pool buffers are exhausted, the
   recovery CPU blocks on the log disk — modelled by pumping the simulated
   clock until a disk completion frees resources. *)
let wait_for f t =
  let sim = Log_disk.sim t.log_disk in
  while (not (f ())) && Mrdb_sim.Sim.step sim do
    ()
  done

let seal_and_write t bin =
  wait_for (fun () -> Partition_bin.can_seal bin) t;
  let had_pages = Partition_bin.first_lsn bin >= 0L in
  match Partition_bin.seal_page bin ~log_disk:t.log_disk with
  | None -> ()
  | Some (lsn, image) ->
      (match t.recorder with
      | None -> ()
      | Some fr ->
          let part = Partition_bin.partition bin in
          Mrdb_obs.Flight_recorder.bin_flush fr ~segment:part.Addr.segment
            ~partition:part.Addr.partition);
      t.pending_writes <- t.pending_writes + 1;
      Log_disk.write_page t.log_disk ~lsn image (fun () ->
          t.pending_writes <- t.pending_writes - 1;
          Partition_bin.flush_complete bin ~lsn);
      if not had_pages then push_first_lsn t bin;
      check_age_triggers t

let accept t buf ~pos ~len =
  (* Routes the encoded frame straight from the SLB drain buffer into the
     partition bin.  The bin index is peeked out of the frame without
     decoding; the frame stays valid across the backpressure waits below
     because reentrant drains are excluded by the SLB guard and commits
     use a different scratch. *)
  let bin =
    let idx = Log_record.peek_bin_index buf ~pos in
    match bin_of_index t idx with
    | Some bin -> bin
    | None ->
        Mrdb_util.Fatal.invariantf ~mod_:"Slt" "accept: record for unknown bin %d" idx
  in
  let rec append () =
    match Partition_bin.append bin buf ~pos ~len with
    | `Buffered -> ()
    | `Page_full ->
        seal_and_write t bin;
        (match Partition_bin.append bin buf ~pos ~len with
        | `Buffered -> ()
        | `Page_full ->
            raise
              (Record_too_large
                 { partition = Partition_bin.partition bin; bytes = len }))
    | exception Partition_bin.Pool_exhausted ->
        let sim = Log_disk.sim t.log_disk in
        if Mrdb_sim.Sim.step sim then append ()
        else raise Partition_bin.Pool_exhausted
  in
  append ();
  if Partition_bin.update_count bin >= t.n_update then
    request_checkpoint t (Partition_bin.partition bin) Update_count

let flush_partition t part =
  match find_bin t part with
  | None -> ()
  | Some bin -> if Partition_bin.buffered_records bin > 0 then seal_and_write t bin

let drop_partition t part =
  (match find_bin t part with
  | None -> ()
  | Some bin ->
      Partition_bin.reset_after_checkpoint bin;
      (* Let in-flight page writes complete: their completions re-persist
         the bin record, which would resurrect a cleared slot. *)
      let sim = Log_disk.sim t.log_disk in
      while Partition_bin.inflight_lsns bin <> [] && Mrdb_sim.Sim.step sim do
        ()
      done;
      Partition_bin.clear_slot t.layout ~idx:(Partition_bin.idx bin);
      t.bins_by_idx.(Partition_bin.idx bin) <- None;
      Addr.Partition_table.remove t.bins_by_part part);
  Addr.Partition_table.remove t.requested part

let active_partitions t =
  Addr.Partition_table.fold
    (fun part bin acc -> if Partition_bin.has_outstanding bin then part :: acc else acc)
    t.bins_by_part []
  |> List.sort Addr.compare_partition

let pending_page_writes t = t.pending_writes

(* -- recovery read path ------------------------------------------------------ *)

let read_lsn t bin lsn k =
  match Partition_bin.read_inflight bin ~lsn with
  | Some image ->
      let cfg = Stable_layout.config t.layout in
      Log_page.parse ~page_bytes:cfg.Stable_layout.log_page_bytes
        ~dir_size:cfg.Stable_layout.dir_size image
      |> Result.map_error (fun e ->
             Log_disk.Unreadable { lsn; reason = "inflight image: " ^ e })
      |> k
  | None -> Log_disk.read_page t.log_disk ~lsn k

(* Read one generation's chain (first LSN + current span) in original
   write order, invoking [k] with its pages' payload chunks.

   [allow_torn_tail]: the chain's {e final} page is the one a crash can
   tear mid-write.  Normally its stable-memory shadow serves the read
   ([read_inflight] above), but if the image is gone (the write had
   completed on one mirror and the other copy was lost) an [Unreadable]
   final page is discarded rather than failing recovery: the records on it
   were never acknowledged durable on both mirrors, so the log simply
   "ended an instant earlier".  Any earlier page stays a hard error. *)
let read_chain t bin ?(allow_torn_tail = false) (first, current_span) k =
  if first < 0L then k (Ok [])
  else if current_span = [] then
    k (Error (Log_disk.Unreadable { lsn = first; reason = "active chain with empty directory" }))
  else begin
    let tail_lsn = List.fold_left (fun _ l -> l) first current_span in
    let discard_torn lsn = function
      | Log_disk.Unreadable _ when allow_torn_tail && lsn = tail_lsn ->
          Mrdb_sim.Trace.incr (Log_disk.trace t.log_disk) "restorer_torn_tail_discarded";
          true
      | _ -> false
    in
    let span_cache : (int64, Log_page.chunk) Hashtbl.t = Hashtbl.create 16 in
    (* Phase 1: walk spans backward until the span starting at [first]; the
       first page of each span embeds the previous span's directory. *)
    let rec collect_spans spans =
      match spans with
      | [] | [] :: _ ->
          k (Error (Log_disk.Unreadable { lsn = first; reason = "empty span during directory walk" }))
      | (oldest_span_head :: _) :: _ ->
          if oldest_span_head = first then read_all_pages spans
          else
            read_lsn t bin oldest_span_head (fun result ->
                match result with
                | Error e -> k (Error e)
                | Ok (header, chunk) ->
                    Hashtbl.replace span_cache oldest_span_head chunk;
                    let prev_span = Array.to_list header.Log_page.dir in
                    if prev_span = [] then
                      k (Error (Log_disk.Unreadable
                                  { lsn = oldest_span_head;
                                    reason = "missing embedded directory during span walk" }))
                    else collect_spans (prev_span :: spans))
    (* Phase 2: read every page in original write order. *)
    and read_all_pages spans =
      let lsns = List.concat spans in
      let out = ref [] in
      let rec step = function
        | [] -> k (Ok (List.rev !out))
        | lsn :: rest -> (
            match Hashtbl.find_opt span_cache lsn with
            | Some chunk ->
                out := chunk :: !out;
                step rest
            | None ->
                read_lsn t bin lsn (fun result ->
                    match result with
                    | Error e when discard_torn lsn e -> step rest
                    | Error e -> k (Error e)
                    | Ok (_, chunk) ->
                        out := chunk :: !out;
                        step rest))
      in
      step lsns
    in
    collect_spans [ current_span ]
  end

let records_for_recovery t part k =
  match find_bin t part with
  | None -> k (Ok [])
  | Some bin -> (
      (* Replay order: shadow pages, shadow buffer, live pages, live
         buffer — exactly the order the records were originally written. *)
      let buffer ~shadow = Option.to_list (Partition_bin.buffer bin ~shadow) in
      let live_buffer = buffer ~shadow:false in
      let shadow_buffer = buffer ~shadow:true in
      let finish shadow_pages live_pages =
        k (Ok (shadow_pages @ shadow_buffer @ live_pages @ live_buffer))
      in
      (* The partition's newest page — the only torn-write candidate — is
         the live chain's tail, or the shadow chain's tail when no live
         page has been sealed since the cut. *)
      let live_has_pages = fst (Partition_bin.live_chain_spec bin) >= 0L in
      let read_live shadow_pages =
        read_chain t bin ~allow_torn_tail:live_has_pages
          (Partition_bin.live_chain_spec bin) (fun result ->
            match result with
            | Error e -> k (Error (Log_disk.read_error_to_string e))
            | Ok live_pages -> finish shadow_pages live_pages)
      in
      match Partition_bin.shadow_chain_spec bin with
      | None -> read_live []
      | Some spec ->
          read_chain t bin ~allow_torn_tail:(not live_has_pages) spec (fun result ->
              match result with
              | Error e ->
                  k (Error ("shadow chain: " ^ Log_disk.read_error_to_string e))
              | Ok shadow_pages -> read_live shadow_pages))

(* -- checkpoint completion ---------------------------------------------------- *)

let begin_checkpoint t part =
  match find_bin t part with
  | None -> `Nothing_to_cut
  | Some bin -> Partition_bin.begin_cut bin

let checkpoint_finished t part ~watermark =
  (match find_bin t part with
  | None -> ()
  | Some bin ->
      if Partition_bin.has_shadow bin then begin
        (* The cut protocol: the image covers exactly the shadow
           generation; release it.  The live generation (post-copy
           records) stays. *)
        Partition_bin.discard_shadow bin;
        push_first_lsn t bin
      end
      else if Partition_bin.last_seq bin <= watermark then begin
        (* No cut was taken (non-resident partition, or a shadow left over
           from a checkpoint interrupted by a crash) and nothing newer than
           the image exists: safe to flush for the archive and reset. *)
        if Partition_bin.buffered_records bin > 0 then seal_and_write t bin;
        Partition_bin.reset_after_checkpoint bin
      end
      (* else: records newer than the image exist and no cut separates
         them; keep everything — the watermark filter makes the stale
         prefix harmless at replay, and the next checkpoint (with a cut)
         reclaims the space. *));
  Addr.Partition_table.remove t.requested part
