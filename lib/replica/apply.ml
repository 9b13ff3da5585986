module Db = Mrdb_core.Db
module Trace = Mrdb_sim.Trace
module Log_disk = Mrdb_wal.Log_disk
module Log_page = Mrdb_wal.Log_page
module Checksum = Mrdb_util.Checksum

(* The divergence CRC is content-level — live slots in slot order, each
   chained as (slot, length, bytes) — not a raw snapshot CRC: logical
   replay reproduces every entity exactly, but heap placement inside the
   partition may legally differ between a live partition and an
   image-plus-replay rebuild (compaction timing), and physical layout is
   not state. *)
let content_crc partition =
  let crc = ref Int32.zero in
  let buf = Bytes.create 8 in
  Mrdb_storage.Partition.iter
    (fun slot data ->
      Mrdb_util.Codec.put_u32 buf 0 slot;
      Mrdb_util.Codec.put_u32 buf 4 (Bytes.length data);
      crc := Checksum.crc32 ~init:!crc buf ~pos:0 ~len:8;
      crc := Checksum.crc32 ~init:!crc data ~pos:0 ~len:(Bytes.length data))
    partition;
  !crc

let install_batch ~standby (b : Ship_log.batch) =
  let trace = Db.trace standby in
  (* A warm standby's volatile state describes the durable bytes as they
     were before this batch; installing on top would leave it describing
     nothing.  Drop to cold first — promotion re-runs recovery anyway. *)
  if not (Db.is_crashed standby) then Db.crash standby;
  List.iter
    (fun (lsn, image) ->
      Log_disk.install_page (Db.log_disk standby) ~lsn image;
      Trace.incr trace "replica_log_pages_installed")
    b.Ship_log.log_pages;
  List.iter
    (fun (page, image) ->
      Mrdb_hw.Disk.install_page (Db.ckpt_disk standby) ~page image;
      Trace.incr trace "replica_ckpt_pages_installed")
    b.Ship_log.ckpt_pages;
  (* The stable image last: it carries next_lsn, the bin tables and the
     well-known area, so once it lands the standby's durable state is the
     primary's at the cut — this write is the batch's commit point. *)
  let mem = Db.stable_mem standby in
  if Bytes.length b.Ship_log.stable <> Mrdb_hw.Stable_mem.size mem then
    Mrdb_util.Fatal.misuse "Apply.install_batch: stable image size mismatch";
  Mrdb_hw.Stable_mem.write mem ~off:0 b.Ship_log.stable;
  Trace.incr trace "replica_batches_applied"

(* Every in-window log page on the standby's own log disk, grouped by the
   partition that owns it as payload chunks in original (ascending-LSN)
   order.  A slot holding a different LSN's page (never shipped, or
   lapped) is skipped — if its records mattered, the per-partition CRC
   will say so. *)
let window_chunks standby =
  let ld = Db.log_disk standby in
  let page_bytes = Log_disk.page_bytes ld and dir_size = Log_disk.dir_size ld in
  let by_part = Hashtbl.create 32 in
  let lsn = ref (Log_disk.window_start ld) in
  (* Parsed (CRC, header, frame tiling) in place on the borrowed media
     buffer. *)
  let take image =
    match Log_page.parse ~page_bytes ~dir_size image with
    | Error _ -> ()
    | Ok (header, { Log_page.pos; len; _ }) ->
        if header.Log_page.lsn = !lsn then
          let part = header.Log_page.part in
          let prev = Option.value (Hashtbl.find_opt by_part part) ~default:[] in
          (* Copy out only the framed payload: the borrow ends with this
             call, and the window's chunks are all held until the audit
             ends. *)
          let chunk = { Log_page.buf = Bytes.sub image pos len; pos = 0; len } in
          Hashtbl.replace by_part part (chunk :: prev)
  in
  while !lsn < Log_disk.next_lsn ld do
    ignore (Log_disk.with_page ld ~lsn:!lsn take);
    lsn := Int64.add !lsn 1L
  done;
  Hashtbl.filter_map_inplace (fun _ chunks -> Some (List.rev chunks)) by_part;
  by_part

(* Rebuild one partition from the standby's own durable artifacts —
   checkpoint image (when one exists) plus the log records above its
   watermark, replayed through the same {!Mrdb_recovery.Restorer} REDO
   kernel a restart uses.  The image goes through the restore fetch's
   image half ({!Mrdb_recovery.Restorer.partition_of_image}) but is read
   with untimed borrows, each page blitted straight into one image
   buffer: an audit must not move the standby's clock.
   [None] = the durable state cannot reproduce the partition (missing,
   corrupt or mismatched image, or a replay that blows an invariant). *)
let rebuild ~standby ~by_part (c : Ship_log.part_check) =
  let part = c.Ship_log.part in
  let base =
    if c.Ship_log.ckpt_page < 0 then
      Some
        ( Mrdb_storage.Partition.create
            ~size:(Db.config standby).Mrdb_core.Config.partition_bytes
            ~segment:part.Mrdb_storage.Addr.segment
            ~partition:part.Mrdb_storage.Addr.partition,
          0 )
    else
      let disk = Db.ckpt_disk standby in
      let pb = (Mrdb_hw.Disk.params disk).Mrdb_hw.Disk.page_bytes in
      let image = Bytes.create (c.Ship_log.ckpt_pages * pb) in
      let rec blit i =
        if i = c.Ship_log.ckpt_pages then true
        else
          match
            Mrdb_hw.Disk.with_page disk ~page:(c.Ship_log.ckpt_page + i) (fun p ->
                Bytes.blit p 0 image (i * pb) pb)
          with
          | None -> false
          | Some () -> blit (i + 1)
      in
      if not (blit 0) then None
      else
        Mrdb_recovery.Restorer.partition_of_image ~part image |> Result.to_option
  in
  match base with
  | None -> None
  | Some (partition, watermark) -> (
      let chunks = Option.value (Hashtbl.find_opt by_part part) ~default:[] in
      (* A replay that blows up (a record addressing a slot the base image
         cannot account for) is the strongest possible divergence signal:
         these artifacts do not compose.  Report it as such rather than
         letting the invariant escape — the re-seed is the repair. *)
      match Mrdb_recovery.Restorer.apply_records ~partition ~watermark chunks with
      | _ -> Some partition
      | exception Mrdb_util.Fatal.Invariant _ -> None
      | exception Invalid_argument _ -> None)

let audit ~standby checks =
  let trace = Db.trace standby in
  let by_part = window_chunks standby in
  List.filter_map
    (fun (c : Ship_log.part_check) ->
      Trace.incr trace "replica_audit_partitions";
      let ok =
        match rebuild ~standby ~by_part c with
        | None -> false
        | Some partition -> content_crc partition = c.Ship_log.crc
      in
      if ok then None
      else begin
        Trace.incr trace "replica_divergences";
        Some c.Ship_log.part
      end)
    checks
