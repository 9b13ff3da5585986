(* R7 fixture: a non-WAL module appending directly to an SLB region,
   bypassing the per-executor redo sink that owns the region. *)

let smuggle slb = Mrdb_wal.Slb.Region.append (Mrdb_wal.Slb.region slb 0) ~txn_id:7 "rogue record"
