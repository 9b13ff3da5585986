module Cpu = Mrdb_sim.Cpu
module Trace = Mrdb_sim.Trace
module Slb = Mrdb_wal.Slb
module Slt = Mrdb_wal.Slt
module Log_disk = Mrdb_wal.Log_disk

(* Table 2 instruction costs, charged against the dedicated 1-MIPS recovery
   CPU as it sorts records into bins and initiates page writes.  The work
   is asynchronous with respect to commit (transactions never wait for the
   sort — §2.3.1), so the charge is fire-and-forget: it occupies the
   recovery CPU's simulated time and shows up in throughput measurements,
   not in commit latency. *)
let record_sort_fixed_instr = 43 (* lookup 20 + page check 10 + copy startup 3 + page info 10 *)
let copy_instr_per_byte = 1.0 (* 0.125 instr/byte, read + write, stable memory 4x slower *)
let page_write_instr = 640 (* write init 500 + page alloc 100 + LSN bookkeeping 40 *)

type t = {
  env : Recovery_env.t;
  cpu : Cpu.t;
  log_disk : Log_disk.t;
  slb : Slb.t;
  slt : Slt.t;
}

let create ~env ~cpu ~log_disk ~slb ~slt = { env; cpu; log_disk; slb; slt }

let slt s = s.slt
let slb s = s.slb

let drain s =
  Trace.incr s.env.Recovery_env.trace "sorter_drain_calls";
  let records = ref 0 and bytes = ref 0 in
  let pages0 = Log_disk.pages_written s.log_disk in
  let txns =
    (* Raw frames end-to-end: no Log_record is ever materialized between
       the SLB chain and the partition bin. *)
    Slb.drain s.slb ~f:(fun ~txn_id:_ buf ~pos ~len ->
        incr records;
        bytes := !bytes + len;
        Slt.accept s.slt buf ~pos ~len)
  in
  let pages = Log_disk.pages_written s.log_disk - pages0 in
  Trace.add s.env.Recovery_env.trace "sorter_records_streamed" !records;
  Trace.add s.env.Recovery_env.trace "sorter_bytes_streamed" !bytes;
  (match s.env.Recovery_env.obs with
  | Some obs when !records > 0 ->
      Mrdb_obs.Metrics.observe
        (Mrdb_obs.Obs.drain_batch obs)
        !records;
      Mrdb_obs.Flight_recorder.sorter_drain
        (Mrdb_obs.Obs.recorder obs)
        ~txns ~records:!records
  | _ -> ());
  let instructions =
    (record_sort_fixed_instr * !records)
    + int_of_float (copy_instr_per_byte *. float_of_int !bytes)
    + (page_write_instr * pages)
  in
  if instructions > 0 then Cpu.execute s.cpu ~instructions (fun () -> ())

let sort_backlog ~slb ~slt =
  ignore
    (Slb.drain slb ~f:(fun ~txn_id:_ buf ~pos ~len ->
         Slt.accept slt buf ~pos ~len))

let force_log s =
  List.iter (fun part -> Slt.flush_partition s.slt part) (Slt.active_partitions s.slt);
  Recovery_env.pump_until s.env (fun () -> Slt.pending_page_writes s.slt = 0)
