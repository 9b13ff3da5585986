(* The declared architecture.  This table is the single place the rules
   live; mrdb_lint enforces it against the sources, so editing a dune file
   (or adding a library) without updating — and thereby re-reviewing — the
   declared order is itself a violation. *)

(* -- library universe ------------------------------------------------------ *)

(* Directory under lib/ -> library name, mirroring the dune stanzas. *)
let libraries =
  [
    ("util", "mrdb_util");
    ("sim", "mrdb_sim");
    ("obs", "mrdb_obs");
    ("exec", "mrdb_exec");
    ("hw", "mrdb_hw");
    ("fault", "mrdb_fault");
    ("storage", "mrdb_storage");
    ("index", "mrdb_index");
    ("logical", "mrdb_logical");
    ("txn", "mrdb_txn");
    ("wal", "mrdb_wal");
    ("ckpt", "mrdb_ckpt");
    ("analysis", "mrdb_analysis");
    ("archive", "mrdb_archive");
    ("recovery", "mrdb_recovery");
    ("core", "mrdb_core");
    ("replica", "mrdb_replica");
    ("lint", "mrdb_lint");
  ]

let library_of_dir dir = List.assoc_opt dir libraries
let is_known_library name = List.exists (fun (_, l) -> l = name) libraries

(* R2: the declared dependency order (util -> hw/sim -> wal/storage/txn/index
   -> ckpt/archive -> recovery -> core).  Each entry lists the mrdb libraries
   a library may reference — the transitively-closed mirror of the dune
   [libraries] fields.  The seam the paper's 2.3 two-CPU split depends on is
   visible here as an absence: [mrdb_recovery] must never reach up into
   [mrdb_core]. *)
let allowed_deps =
  [
    ("mrdb_util", []);
    ("mrdb_sim", [ "mrdb_util" ]);
    ("mrdb_obs", [ "mrdb_util"; "mrdb_sim" ]);
    ("mrdb_exec", [ "mrdb_util" ]);
    ("mrdb_hw", [ "mrdb_util"; "mrdb_sim" ]);
    ("mrdb_fault", [ "mrdb_util"; "mrdb_sim"; "mrdb_obs"; "mrdb_hw" ]);
    ("mrdb_storage", [ "mrdb_util"; "mrdb_hw" ]);
    ("mrdb_index", [ "mrdb_util"; "mrdb_storage" ]);
    (* The logical-command codec sits directly on storage: command records
       replay through Relation/Partition, and nothing below the WAL may
       know about record framing. *)
    ("mrdb_logical", [ "mrdb_util"; "mrdb_storage" ]);
    ("mrdb_txn", [ "mrdb_util"; "mrdb_hw"; "mrdb_obs"; "mrdb_storage" ]);
    ( "mrdb_wal",
      [ "mrdb_util"; "mrdb_sim"; "mrdb_obs"; "mrdb_hw"; "mrdb_storage";
        "mrdb_logical" ] );
    ("mrdb_ckpt", [ "mrdb_util"; "mrdb_sim"; "mrdb_hw"; "mrdb_storage" ]);
    ("mrdb_analysis", [ "mrdb_util" ]);
    ("mrdb_archive", [ "mrdb_util"; "mrdb_storage"; "mrdb_wal"; "mrdb_ckpt" ]);
    ( "mrdb_recovery",
      [
        "mrdb_util";
        "mrdb_sim";
        "mrdb_obs";
        "mrdb_hw";
        "mrdb_storage";
        "mrdb_logical";
        "mrdb_wal";
        "mrdb_txn";
        "mrdb_ckpt";
        "mrdb_archive";
      ] );
    ( "mrdb_core",
      [
        "mrdb_util";
        "mrdb_sim";
        "mrdb_obs";
        "mrdb_exec";
        "mrdb_hw";
        "mrdb_storage";
        "mrdb_index";
        "mrdb_logical";
        "mrdb_txn";
        "mrdb_wal";
        "mrdb_ckpt";
        "mrdb_recovery";
        "mrdb_archive";
      ] );
    (* The replica sits above core (it drives two Db instances) but below
       nothing: no library may depend back on it, so the single-node build
       is never entangled with replication. *)
    ( "mrdb_replica",
      [
        "mrdb_util";
        "mrdb_sim";
        "mrdb_obs";
        "mrdb_hw";
        "mrdb_storage";
        "mrdb_wal";
        "mrdb_ckpt";
        "mrdb_recovery";
        "mrdb_core";
        "mrdb_fault";
      ] );
    ("mrdb_lint", [ "mrdb_util" ]);
  ]

let may_depend ~from ~target =
  match List.assoc_opt from allowed_deps with
  | None -> false
  | Some deps -> List.mem target deps

(* -- R1: wild-write discipline --------------------------------------------- *)

(* The mutating half of the Stable_mem API.  Reads are legal anywhere. *)
let stable_mem_mutators = [ "write"; "write_sub"; "fill"; "put_u32"; "put_i64" ]

(* Files allowed to write stable memory raw (paths relative to lib/):
   the WAL components (SLB, SLT, partition bins, the stable layout), the
   recovery manager's well-known region, the defining module itself, and
   the standby batch-install path — the ONLY place replication may write
   a shipped stable image. *)
let wild_write_allowed rel =
  String.length rel >= 4
  && String.sub rel 0 4 = "wal/"
  || rel = "recovery/wellknown.ml"
  || rel = "hw/stable_mem.ml"
  || rel = "replica/apply.ml"

(* -- R3: partiality --------------------------------------------------------- *)

(* Banned identifier paths (each with its [Stdlib]-qualified spelling). *)
let banned_idents =
  [
    ([ "failwith" ], "failwith");
    ([ "Stdlib"; "failwith" ], "failwith");
    ([ "invalid_arg" ], "invalid_arg");
    ([ "Stdlib"; "invalid_arg" ], "invalid_arg");
    ([ "Option"; "get" ], "Option.get");
    ([ "Stdlib"; "Option"; "get" ], "Option.get");
    ([ "List"; "hd" ], "List.hd");
    ([ "Stdlib"; "List"; "hd" ], "List.hd");
  ]

let banned_ident path =
  let rec find = function
    | [] -> None
    | (p, name) :: rest -> if p = path then Some name else find rest
  in
  find banned_idents

(* The one sanctioned escape hatch (relative to lib/). *)
let partiality_allowed rel = rel = "util/fatal.ml"

(* -- R5: fault-injection containment ---------------------------------------- *)

(* The injection half of the hardware API: arming hooks and fabricating
   failures or corruption.  Query/observation calls (Disk.failed,
   Duplex.state) are legal anywhere. *)
let fault_injection_idents =
  [
    ("Disk", [ "set_fault_hook"; "corrupt_page"; "fail" ]);
    ("Duplex", [ "fail_primary"; "fail_mirror" ]);
    ("Stable_mem", [ "set_fault_hook"; "corrupt" ]);
    ("Ship_channel", [ "set_extra_delay"; "set_drop" ]);
  ]

(* Who may inject (relative to lib/): the fault subsystem itself and the
   defining hardware modules (Duplex fails its member Disk; each module
   implements its own injection surface).  Tests live outside lib/ and are
   not linted, so they stay free to inject. *)
let fault_injection_allowed rel =
  (String.length rel >= 6 && String.sub rel 0 6 = "fault/")
  || rel = "hw/disk.ml" || rel = "hw/duplex.ml" || rel = "hw/stable_mem.ml"
  || rel = "hw/ship_channel.ml"

(* -- R6: output discipline --------------------------------------------------- *)

(* Bare stdout printers (each with its [Stdlib]-qualified spelling).
   [Format.pp_print_string ppf] and friends take an explicit formatter and
   stay legal — only the implicit-stdout forms are banned. *)
let print_idents =
  [
    ([ "Printf"; "printf" ], "Printf.printf");
    ([ "Stdlib"; "Printf"; "printf" ], "Printf.printf");
    ([ "print_string" ], "print_string");
    ([ "Stdlib"; "print_string" ], "print_string");
    ([ "print_endline" ], "print_endline");
    ([ "Stdlib"; "print_endline" ], "print_endline");
    ([ "print_newline" ], "print_newline");
    ([ "Stdlib"; "print_newline" ], "print_newline");
  ]

let print_ident path =
  let rec find = function
    | [] -> None
    | (p, name) :: rest -> if p = path then Some name else find rest
  in
  find print_idents

(* Who may print (relative to lib/): the observability subsystem's
   renderers and the table renderer itself.  Binaries, benches and tests
   live outside lib/ and are not linted. *)
let print_allowed rel =
  (String.length rel >= 4 && String.sub rel 0 4 = "obs/") || rel = "util/texttab.ml"

(* -- R8: nondeterminism sources ---------------------------------------------- *)

type nondet = Clock | Random_src | Poly_hash | Unordered_iter

(* Classify a flattened reference as a nondeterminism source.  Matching
   scans the whole path, so [Stdlib.Hashtbl.fold], [Hashtbl.fold] and
   [Mrdb_foo.Hashtbl.fold] all hit; [Mrdb_util.Rng] (our seeded
   splitmix64) deliberately does not. *)
let nondet_ident path =
  let rec scan = function
    | "Random" :: _ -> Some (Random_src, "Random")
    | "Unix" :: (("gettimeofday" | "time" | "times") as f) :: _ ->
        Some (Clock, "Unix." ^ f)
    | "Sys" :: "time" :: _ -> Some (Clock, "Sys.time")
    | "Sim" :: "now" :: _ -> Some (Clock, "Sim.now")
    | "Hashtbl" :: (("hash" | "hash_param" | "seeded_hash") as f) :: _ ->
        Some (Poly_hash, "Hashtbl." ^ f)
    | "Hashtbl"
      :: (("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as f)
      :: _ ->
        Some (Unordered_iter, "Hashtbl." ^ f)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan path

(* -- interprocedural configuration (R8-R11) ---------------------------------- *)

type entry_point = { e_rel : string; e_binding : string }

type allow = {
  a_rel : string;
  a_binding : string;
  a_ident : string;
  a_why : string;
}

type resource = {
  res_name : string;
  res_write_idents : (string * string) list;
      (* (module-anywhere-in-path, function) pairs, matched like R7 *)
  res_fields : string list;  (* mutable record fields whose [<-] is a write *)
  res_owners : string list;  (* rel prefixes ("wal/") or exact files *)
}

type exn_decl = { x_rel : string; x_name : string }

type config = {
  r8_entry_points : entry_point list;
  r8_allow : allow list;
  r8_random_ok : string list;
  r9_resources : resource list;
  r10_exceptions : exn_decl list;
  r10_stdlib_exceptions : string list;
  r10_raise_ok : string list;
  r10_wildcard_allow : allow list;
}

let owner_matches owners rel =
  List.exists
    (fun o ->
      o = rel
      || (String.length o > 0
          && o.[String.length o - 1] = '/'
          && String.length rel >= String.length o
          && String.sub rel 0 (String.length o) = o))
    owners

let write_ident_call res path =
  let rec scan = function
    | m :: f :: _ when List.mem (m, f) res.res_write_idents ->
        Some (m ^ "." ^ f)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan path

let default_config =
  {
    (* R8 roots: the commit path (facade -> per-executor redo sink), the
       sorter's drain, and the recovery restart path.  Everything these
       reach must be replay-deterministic. *)
    r8_entry_points =
      [
        { e_rel = "core/db.ml"; e_binding = "commit" };
        { e_rel = "core/db.ml"; e_binding = "with_txn" };
        { e_rel = "core/db.ml"; e_binding = "begin_txn" };
        { e_rel = "core/db_system.ml"; e_binding = "user_sink" };
        { e_rel = "core/db_system.ml"; e_binding = "with_system_txn" };
        { e_rel = "core/db_system.ml"; e_binding = "drain" };
        { e_rel = "recovery/recovery_mgr.ml"; e_binding = "restart" };
        { e_rel = "recovery/log_sorter.ml"; e_binding = "drain" };
        { e_rel = "recovery/log_sorter.ml"; e_binding = "sort_backlog" };
        { e_rel = "recovery/restorer.ml"; e_binding = "ensure_partition" };
        { e_rel = "recovery/restorer.ml"; e_binding = "restore_catalog" };
        { e_rel = "recovery/restorer.ml"; e_binding = "background_step" };
      ];
    (* Each entry is a justified suppression; R11 fails the build the
       moment the file, binding or identifier it cites stops existing, so
       none of these can go stale silently. *)
    r8_allow =
      [
        (* Sim.now is the discrete-event simulated clock: a pure function
           of the event schedule, not wall time.  It is classified as a
           Clock source anyway so every read on the deterministic path
           carries an explicit justification that the value feeds
           accounting or observability, never an exported ordering. *)
        {
          a_rel = "core/db.ml";
          a_binding = "observe_txn_latency";
          a_ident = "Sim.now";
          a_why = "simulated-clock latency sample; feeds obs histograms only";
        };
        {
          a_rel = "core/db.ml";
          a_binding = "commit";
          a_ident = "Sim.now";
          (* Group commit: the precommit timestamp paired with each queued
             transaction, and the flush deadline scheduled from it — both
             against the deterministic simulated clock. *)
          a_why = "group enqueue timestamp + deadline on the simulated clock";
        };
        {
          a_rel = "core/db.ml";
          a_binding = "flush_pending";
          a_ident = "Sim.now";
          a_why = "group-wait histogram sample on the simulated clock; obs only";
        };
        {
          a_rel = "hw/disk.ml";
          a_binding = "service";
          a_ident = "Sim.now";
          a_why = "device service-time accounting on the simulated clock";
        };
        {
          a_rel = "recovery/recovery_mgr.ml";
          a_binding = "restart";
          a_ident = "Sim.now";
          a_why = "recovery timeline timestamps on the simulated clock; obs only";
        };
        {
          a_rel = "recovery/restorer.ml";
          a_binding = "ensure_partition";
          a_ident = "Sim.now";
          a_why = "restore-latency measurement on the simulated clock; obs only";
        };
        {
          a_rel = "sim/cpu.ml";
          a_binding = "enqueue";
          a_ident = "Sim.now";
          a_why = "instruction-time accounting on the simulated clock";
        };
        {
          a_rel = "sim/cpu.ml";
          a_binding = "execute";
          a_ident = "Sim.now";
          a_why = "instruction-time accounting on the simulated clock";
        };
        {
          a_rel = "txn/txn.ml";
          a_binding = "Manager.abort";
          a_ident = "Hashtbl.iter";
          (* Iterates the touched-segment set to invalidate index overlay
             caches; invalidation is idempotent and per-segment, so the
             visit order is unobservable. *)
          a_why = "overlay invalidation is idempotent; visit order unobservable";
        };
        {
          a_rel = "txn/txn.ml";
          a_binding = "Manager.active_count";
          a_ident = "Hashtbl.fold";
          (* Folds to a commutative count — the result is order-free. *)
          a_why = "commutative count; fold order cannot be observed";
        };
      ];
    r8_random_ok = [ "exec/executor.ml"; "util/rng.ml" ];
    (* R9: the shared-mutable-state registry.  Every write site must
       either live in the owning module or be reachable only through it
       (checked on the call graph, not per-file paths like R7). *)
    r9_resources =
      [
        {
          res_name = "catalog descriptors";
          res_write_idents = [];
          res_fields =
            [ "indices"; "partitions"; "ckpt_page"; "ckpt_page_count"; "resident" ];
          res_owners = [ "storage/catalog.ml" ];
        };
        {
          res_name = "relation runtimes";
          res_write_idents = [];
          res_fields = [ "index_insts"; "indices_attached" ];
          res_owners = [ "core/" ];
        };
        {
          res_name = "striped SLB regions";
          res_write_idents = [ ("Region", "append"); ("Region", "stage_append") ];
          res_fields = [];
          res_owners = [ "wal/"; "core/db_system.ml" ];
        };
        {
          (* Bypassing-the-clock page installs: the replication transport
             writing received durable artifacts.  Outside the devices
             themselves, only the standby's batch-install path may call
             them — a primary must never install_page its own media. *)
          res_name = "standby durable page images";
          res_write_idents =
            [
              ("Disk", "install_page");
              ("Duplex", "install_page");
              ("Log_disk", "install_page");
            ];
          res_fields = [];
          res_owners = [ "hw/"; "wal/log_disk.ml"; "replica/apply.ml" ];
        };
        {
          (* Command application: a logical record mutates data it does
             not carry, so WHERE commands may be applied is an integrity
             boundary.  Only the codec subsystem itself and the shared
             REDO kernel in the restorer may run the dispatch table (the
             standby audit reaches it through Restorer.apply_records, which
             decodes each frame once and dispatches its command). *)
          res_name = "replay dispatch table";
          res_write_idents = [ ("Replay", "apply_cmd"); ("Dispatch", "register") ];
          res_fields = [];
          res_owners = [ "logical/"; "recovery/restorer.ml" ];
        };
        {
          res_name = "lock-manager shards";
          res_write_idents =
            [
              ("Lock_mgr", "acquire");
              ("Lock_mgr", "release");
              ("Lock_mgr", "release_all");
            ];
          res_fields = [];
          res_owners = [ "txn/"; "core/" ];
        };
      ];
    (* R10: the sanctioned structured exceptions.  A [raise] under lib/
       must construct one of these (or re-raise); R11 checks each entry
       still names a declared exception. *)
    r10_exceptions =
      [
        { x_rel = "util/fatal.ml"; x_name = "Invariant" };
        { x_rel = "wal/slb.ml"; x_name = "Slb_full" };
        { x_rel = "wal/partition_bin.ml"; x_name = "Pool_exhausted" };
        { x_rel = "wal/slt.ml"; x_name = "Bin_table_full" };
        { x_rel = "wal/slt.ml"; x_name = "Record_too_large" };
        { x_rel = "storage/partition.ml"; x_name = "No_space" };
        { x_rel = "storage/relation.ml"; x_name = "Tuple_too_large" };
        { x_rel = "txn/undo_space.ml"; x_name = "Out_of_undo_space" };
        { x_rel = "hw/duplex.ml"; x_name = "Both_mirrors_failed" };
        { x_rel = "hw/volatile.ml"; x_name = "Lost" };
        { x_rel = "core/db_state.ml"; x_name = "Aborted" };
        { x_rel = "core/db_state.ml"; x_name = "Crashed" };
        { x_rel = "core/db_state.ml"; x_name = "Unknown_relation" };
        { x_rel = "core/db_state.ml"; x_name = "Unknown_index" };
      ];
    r10_stdlib_exceptions = [ "Not_found"; "Exit" ];
    (* fatal.ml is the one module allowed to raise outside the registry:
       it implements the escape hatch itself (Invalid_argument for
       misuse). *)
    r10_raise_ok = [ "util/fatal.ml" ];
    r10_wildcard_allow =
      [
        {
          a_rel = "core/sim_exec.ml";
          a_binding = "run";
          a_ident = "_";
          (* Best-effort abort while propagating a programming error: the
             original exception is re-raised on the next line, so nothing
             is swallowed. *)
          a_why = "best-effort abort during exception propagation; original re-raised";
        };
        {
          a_rel = "recovery/wellknown.ml";
          a_binding = "load";
          a_ident = "_";
          (* Decoding a possibly-rotted well-known copy: any decode
             failure means fall through to the redundant second copy —
             exactly the point of keeping two CRC'd copies. *)
          a_why = "rotted-copy decode failure falls to the redundant copy";
        };
      ];
  }

(* -- R7: SLB region ownership ------------------------------------------------ *)

(* Each striped SLB region belongs to one executor; every append must funnel
   through the per-executor redo sink in core/db_system.ml (which routes a
   transaction's records to its executor's region) or stay inside the WAL
   component that defines the regions.  Confined call sites keep the
   region-ownership invariant auditable: no other layer can interleave
   records into a region it does not own. *)
let slb_append_allowed rel =
  (String.length rel >= 4 && String.sub rel 0 4 = "wal/")
  || rel = "core/db_system.ml"
