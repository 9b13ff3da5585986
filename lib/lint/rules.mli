(** The declared architecture mrdb_lint enforces.

    Rule set (each diagnostic cites the paper clause it protects):
    - {b R1 wild-write discipline}: the mutating [Stable_mem] API is legal
      only in [mrdb_wal] and [recovery/wellknown.ml] (and the defining
      module itself).
    - {b R2 layering}: [Mrdb_*] references must follow the declared
      dependency order; in particular [mrdb_recovery] never references
      [mrdb_core].
    - {b R3 partiality}: bare [failwith] / [invalid_arg] / [assert false] /
      [Option.get] / [List.hd] are banned under [lib/] outside
      [util/fatal.ml].
    - {b R4 sealed interfaces}: every [lib/**/*.ml] has a matching [.mli].
    - {b R5 fault-injection containment}: arming fault hooks and
      fabricating device failures/corruption is legal only under
      [lib/fault/] and in the defining hardware modules (tests are outside
      [lib/] and exempt).
    - {b R6 output discipline}: bare [Printf.printf] / [print_string] /
      [print_endline] / [print_newline] are banned under [lib/] outside
      [lib/obs/] and [util/texttab.ml] — library code renders through
      [Mrdb_obs.Export] or [Mrdb_util.Texttab]; only binaries print.
    - {b R7 SLB region ownership}: [Slb.Region.append] / [stage_append] call
      sites are confined to [core/db_system.ml] (the per-executor redo
      sink) and [lib/wal/] — each striped region is appended only by its
      owning executor's logging path.

    Interprocedural rules (run on the whole-program call graph built by
    {!Index} + {!Callgraph}, configured by {!type:config}):
    - {b R8 determinism}: no function reachable from a commit/drain/recovery
      entry point may touch a nondeterminism source ([Random], wall
      clocks, polymorphic hashing, unordered [Hashtbl] iteration) unless
      the call site sorts or carries a justified allowlist entry.
    - {b R9 ownership}: writes to registered shared mutable state must
      resolve — via the call graph, not per-file paths — to the declared
      owning module.
    - {b R10 structured raises}: every [raise] must construct a declared
      structured exception (or re-raise); [try ... with _ ->] wildcards
      are flagged.
    - {b R11 allowlist hygiene}: every allowlist/registry entry in the
      configuration must still name a real file, binding and identifier. *)

val libraries : (string * string) list
(** Directory under [lib/] -> wrapped library name. *)

val library_of_dir : string -> string option
val is_known_library : string -> bool

val allowed_deps : (string * string list) list
(** Library -> mrdb libraries it may reference (mirrors the dune files;
    the absence of [mrdb_core] under [mrdb_recovery] is the paper's 2.3
    two-CPU seam). *)

val may_depend : from:string -> target:string -> bool

val stable_mem_mutators : string list
val wild_write_allowed : string -> bool
(** [wild_write_allowed rel] — [rel] relative to [lib/]. *)

val banned_ident : string list -> string option
(** [banned_ident path] is [Some display_name] when the flattened
    identifier path is a banned partial function. *)

val partiality_allowed : string -> bool
(** The whitelisted escape hatch, [util/fatal.ml]. *)

val fault_injection_idents : (string * string list) list
(** Module -> injection functions ([Disk] -> [fail], ...); query calls are
    deliberately absent. *)

val fault_injection_allowed : string -> bool
(** [fault_injection_allowed rel] — [rel] relative to [lib/]. *)

val print_idents : (string list * string) list
(** Banned implicit-stdout printers (identifier path, display name);
    formatter-taking [Format] functions are deliberately absent. *)

val print_ident : string list -> string option
(** [print_ident path] is [Some display_name] when the flattened
    identifier path is a banned printer. *)

val print_allowed : string -> bool
(** [print_allowed rel] — [rel] relative to [lib/]: the [obs/] renderers
    and [util/texttab.ml]. *)

val slb_append_allowed : string -> bool
(** [slb_append_allowed rel] — [rel] relative to [lib/]: the WAL component
    itself and [core/db_system.ml], the per-executor redo sink that routes
    each transaction's records to its executor's SLB region. *)

(** {2 Interprocedural configuration (R8-R11)} *)

type nondet = Clock | Random_src | Poly_hash | Unordered_iter

val nondet_ident : string list -> (nondet * string) option
(** Classify a flattened reference as a nondeterminism source; returns the
    kind and a display name ("Sys.time", "Hashtbl.fold", ...). *)

type entry_point = { e_rel : string; e_binding : string }

type allow = {
  a_rel : string;  (** file, relative to the linted root *)
  a_binding : string;  (** top-level (possibly dotted) binding name *)
  a_ident : string;  (** display name of the tolerated identifier *)
  a_why : string;  (** human justification, surfaced by R11 *)
}

type resource = {
  res_name : string;
  res_write_idents : (string * string) list;
      (** (module-anywhere-in-path, function) write calls, matched like R7 *)
  res_fields : string list;
      (** mutable record fields whose [<-] counts as a write *)
  res_owners : string list;
      (** owning rel prefixes (["wal/"]) or exact files *)
}

type exn_decl = { x_rel : string; x_name : string }

type config = {
  r8_entry_points : entry_point list;
  r8_allow : allow list;
  r8_random_ok : string list;
      (** files where [Random]-family references are legal (the seeded
          executor streams and the splitmix implementation itself) *)
  r9_resources : resource list;
  r10_exceptions : exn_decl list;  (** the sanctioned structured exceptions *)
  r10_stdlib_exceptions : string list;  (** e.g. [Not_found], [Exit] *)
  r10_raise_ok : string list;  (** files exempt from the raise registry *)
  r10_wildcard_allow : allow list;
      (** justified [try ... with _ ->] sites, keyed by file + binding *)
}

val owner_matches : string list -> string -> bool
(** [owner_matches owners rel]: [rel] equals an entry or extends a
    ["dir/"]-style prefix entry. *)

val write_ident_call : resource -> string list -> string option
(** Does the flattened path contain one of the resource's write calls?
    Returns the display name. *)

val default_config : config
(** The real tree's configuration; every allow entry carries its
    justification and is validated by R11 against the live index. *)
