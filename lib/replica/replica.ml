module Db = Mrdb_core.Db
module Config = Mrdb_core.Config
module Sim = Mrdb_sim.Sim
module Trace = Mrdb_sim.Trace
module Log_disk = Mrdb_wal.Log_disk
module Slt = Mrdb_wal.Slt
module Ship_channel = Mrdb_hw.Ship_channel
module Stable_mem = Mrdb_hw.Stable_mem
module Checksum = Mrdb_util.Checksum

type t = {
  primary : Db.t;
  standby : Db.t;
  fwd : Ship_channel.t; (* primary -> standby: batches *)
  rev : Ship_channel.t; (* standby -> primary: acks *)
  lag_bound : int;
  mutable epoch : int;
  mutable standby_epoch : int;
  mutable cut : int; (* next cut number *)
  mutable acked_cut : int;
  mutable acked_lsn : int64; (* log pages below are known installed *)
  mutable acked_ckpt : (int, int32) Hashtbl.t; (* standby's known ckpt pages *)
  pending : (int, int64 * (int, int32) Hashtbl.t) Hashtbl.t;
      (* unacked cuts: what the standby will know once each is acked *)
  mutable shipped_seq : int; (* primary commit_seq at the last cut *)
  mutable standby_up : bool;
  mutable reseed_wanted : bool;
  mutable seeded : bool; (* the first cut must be a full seed *)
}

let primary t = t.primary
let standby t = t.standby
let fwd_channel t = t.fwd
let rev_channel t = t.rev
let epoch t = t.epoch
let cuts_shipped t = t.cut
let acked_cut t = t.acked_cut
let standby_up t = t.standby_up

let lag_records t = max 0 (Db.commit_seq t.primary - Db.commit_seq t.standby)

let send_ack t ~epoch ~cut status =
  Ship_channel.send t.rev (Ship_log.encode (Ship_log.Ack { epoch; cut; status }))

(* Standby side: decode, install, audit, ack.  Runs synchronously inside a
   frame delivery on the primary's clock — the installs themselves are
   untimed, so the whole apply is atomic with respect to simulated
   events. *)
let on_standby_frame t data =
  match Ship_log.decode data with
  | Error _ ->
      (* Corrupted in flight; same as a drop — the cursor will resend. *)
      Trace.incr (Db.trace t.standby) "replica_frames_corrupt"
  | Ok (Ship_log.Ack _) -> () (* misrouted; ignore *)
  | Ok (Ship_log.Batch b) ->
      if (not b.Ship_log.full) && b.Ship_log.epoch <> t.standby_epoch then
        (* An incremental batch from a generation this standby never
           seeded from cannot be trusted to compose with its state. *)
        send_ack t ~epoch:t.standby_epoch ~cut:b.Ship_log.cut Ship_log.Diverged
      else begin
        Apply.install_batch ~standby:t.standby b;
        if b.Ship_log.full then t.standby_epoch <- b.Ship_log.epoch;
        let diverged = Apply.audit ~standby:t.standby b.Ship_log.checks in
        send_ack t ~epoch:t.standby_epoch ~cut:b.Ship_log.cut
          (if diverged = [] then Ship_log.Applied else Ship_log.Diverged)
      end

(* Primary side: an ack moves the cursor (Applied) or schedules a full
   re-seed for the next cut (Diverged). *)
let on_primary_frame t data =
  match Ship_log.decode data with
  | Error _ | Ok (Ship_log.Batch _) -> ()
  | Ok (Ship_log.Ack { cut; status; epoch = _ }) -> (
      let trace = Db.trace t.primary in
      match status with
      | Ship_log.Applied ->
          Trace.incr trace "ship_acks_ok";
          if cut >= t.acked_cut then begin
            t.acked_cut <- cut;
            (match Hashtbl.find_opt t.pending cut with
            | Some (lsn_hi, crcs) ->
                t.acked_lsn <- lsn_hi;
                t.acked_ckpt <- crcs
            | None -> ());
            let stale =
              Hashtbl.fold (fun c _ acc -> if c <= cut then c :: acc else acc) t.pending []
            in
            List.iter (Hashtbl.remove t.pending) stale
          end
      | Ship_log.Diverged ->
          Trace.incr trace "ship_acks_diverged";
          t.reseed_wanted <- true)

let create ?(config = Config.small) ?(lag_bound = 64) ?(delay_us = 500.0) () =
  let primary = Db.create ~config () in
  let standby = Db.create ~config () in
  (* The standby starts as a cold durable receptacle: volatile state
     discarded, role flipped, devices awaiting the first full seed. *)
  Db.crash standby;
  Db.demote_to_standby standby;
  let sim = Db.sim primary in
  let t =
    {
      primary;
      standby;
      fwd = Ship_channel.create ~name:"ship-fwd" ~delay_us sim;
      rev = Ship_channel.create ~name:"ship-ack" ~delay_us sim;
      lag_bound = max 1 lag_bound;
      epoch = 1;
      standby_epoch = 0;
      cut = 0;
      acked_cut = -1;
      acked_lsn = 0L;
      acked_ckpt = Hashtbl.create 16;
      pending = Hashtbl.create 16;
      shipped_seq = 0;
      standby_up = true;
      reseed_wanted = false;
      seeded = false;
    }
  in
  Ship_channel.attach t.fwd (fun data -> on_standby_frame t data);
  Ship_channel.attach t.rev (fun data -> on_primary_frame t data);
  Mrdb_obs.Metrics.gauge
    (Mrdb_obs.Obs.metrics (Db.obs primary))
    "replication_lag_records"
    (fun () -> lag_records t);
  t

let ship_cut t =
  if Db.is_crashed t.primary then false
  else begin
    (* The cut: flush the pending commit group, seal every partial bin
       page, and quiesce — after this the primary's durable artifacts
       alone reproduce every committed transaction, which is exactly the
       property the shipped copy inherits. *)
    Db.flush_group t.primary;
    let slt = Db.slt t.primary in
    List.iter (fun p -> Slt.flush_partition slt p) (Slt.active_partitions slt);
    Db.quiesce t.primary;
    let full = t.reseed_wanted || not t.seeded in
    if full && t.reseed_wanted then begin
      t.epoch <- t.epoch + 1;
      Trace.incr (Db.trace t.primary) "ship_reseeds"
    end;
    t.reseed_wanted <- false;
    let ld = Db.log_disk t.primary in
    let next = Log_disk.next_lsn ld in
    let base_lsn =
      if full then Log_disk.window_start ld
      else Int64.max t.acked_lsn (Log_disk.window_start ld)
    in
    let log_pages = ref [] in
    let l = ref base_lsn in
    while !l < next do
      (match Log_disk.with_page ld ~lsn:!l Bytes.copy with
      | Some img -> log_pages := (!l, img) :: !log_pages
      | None -> ());
      l := Int64.add !l 1L
    done;
    let log_pages = List.rev !log_pages in
    let disk = Db.ckpt_disk t.primary in
    let cur_crcs = Hashtbl.create 64 in
    let changed = ref [] in
    (* Every written page is CRC'd in place on every cut; only the pages
       the standby does not provably hold are copied out to ship.  One
       closure serves the whole scan, so an unwritten page costs nothing. *)
    let page = ref 0 in
    let diff img =
      let crc = Checksum.crc32_bytes img in
      Hashtbl.replace cur_crcs !page crc;
      if full || Hashtbl.find_opt t.acked_ckpt !page <> Some crc then
        changed := (!page, Bytes.copy img) :: !changed
    in
    for p = Mrdb_hw.Disk.capacity_pages disk - 1 downto 0 do
      page := p;
      ignore (Mrdb_hw.Disk.with_page disk ~page:p diff)
    done;
    let checks =
      List.filter_map
        (fun part ->
          match Db.partition_snapshot t.primary part with
          | None -> None (* non-resident on the primary: not auditable *)
          | Some snap ->
              let crc = Apply.content_crc (Mrdb_storage.Partition.of_snapshot snap) in
              let ckpt_page, ckpt_pages =
                match Db.checkpoint_location t.primary part with
                | Some (first, n) -> (first, n)
                | None -> (-1, 0)
              in
              Some { Ship_log.part; ckpt_page; ckpt_pages; crc })
        (Db.all_partitions t.primary)
    in
    let mem = Db.stable_mem t.primary in
    let stable = Stable_mem.read mem ~off:0 ~len:(Stable_mem.size mem) in
    let cut = t.cut in
    t.cut <- cut + 1;
    t.seeded <- true;
    Hashtbl.replace t.pending cut (next, cur_crcs);
    let seq = Db.commit_seq t.primary in
    Mrdb_obs.Metrics.observe
      (Mrdb_obs.Obs.ship_batch (Db.obs t.primary))
      (max 0 (seq - t.shipped_seq));
    t.shipped_seq <- seq;
    let trace = Db.trace t.primary in
    Trace.incr trace "ship_cuts";
    Trace.add trace "ship_log_pages" (List.length log_pages);
    Trace.add trace "ship_ckpt_pages" (List.length !changed);
    Ship_channel.send t.fwd
      (Ship_log.encode
         (Ship_log.Batch
            {
              Ship_log.epoch = t.epoch;
              cut;
              full;
              log_pages;
              ckpt_pages = !changed;
              checks;
              stable;
            }));
    (* Pump the clock through delivery and ack: a healthy cut completes
       synchronously; a dropped/corrupted one simply leaves the cursor in
       place for the next cut to re-cover. *)
    Db.quiesce t.primary;
    true
  end

let maybe_ship t =
  if Db.commit_seq t.primary - t.shipped_seq >= t.lag_bound then ship_cut t else false

(* -- node lifecycle ----------------------------------------------------------- *)

let crash_primary t = Db.crash t.primary
let recover_primary ?mode t = Db.recover ?mode t.primary

let crash_standby t =
  t.standby_up <- false;
  Ship_channel.detach t.fwd;
  if not (Db.is_crashed t.standby) then Db.crash t.standby

let resume_standby t =
  if not t.standby_up then begin
    t.standby_up <- true;
    Ship_channel.attach t.fwd (fun data -> on_standby_frame t data)
  end

let warm_standby ?mode t =
  if t.standby_up && Db.is_crashed t.standby then Db.recover ?mode t.standby

let promote ?mode t =
  (* The standby stops consuming the stream the instant it starts its new
     life; a frame already in flight is dropped by the detached channel. *)
  Ship_channel.detach t.fwd;
  t.standby_up <- false;
  Db.promote ?mode t.standby;
  t.standby
