exception Both_mirrors_failed of { op : string; page : int }

type side_status = Ok_ | Failed | Rebuilding

type side = { mutable disk : Disk.t; mutable status : side_status }

type t = {
  sim : Mrdb_sim.Sim.t;
  name : string;
  params : Disk.params;
  capacity_pages : int;
  trace : Mrdb_sim.Trace.t;
  a : side;
  b : side;
}

let create ?(name = "log") ?trace sim ~params ~capacity_pages =
  let trace = match trace with Some tr -> tr | None -> Mrdb_sim.Trace.create () in
  {
    sim;
    name;
    params;
    capacity_pages;
    trace;
    a = { disk = Disk.create ~name:(name ^ ".a") sim ~params ~capacity_pages; status = Ok_ };
    b = { disk = Disk.create ~name:(name ^ ".b") sim ~params ~capacity_pages; status = Ok_ };
  }

let primary t = t.a.disk
let mirror t = t.b.disk
let trace t = t.trace
let capacity_pages t = t.capacity_pages
let page_bytes t = t.params.Disk.page_bytes

let state t =
  match (t.a.status, t.b.status) with
  | Ok_, Ok_ -> `Healthy
  | Failed, Failed -> `Failed
  | _ -> `Degraded

let write_page t ~page data k =
  (* Completion requires every non-failed side; a side under rebuild is
     written too so the resilvered copy is never stale. *)
  let targets =
    List.filter (fun s -> s.status <> Failed) [ t.a; t.b ]
  in
  match targets with
  | [] -> raise (Both_mirrors_failed { op = "write_page"; page })
  | [ s ] ->
      (* Single-copy durability: record the silent degradation. *)
      Mrdb_sim.Trace.incr t.trace "duplex_degraded_writes";
      Disk.write_page s.disk ~page data k
  | _ ->
      let remaining = ref (List.length targets) in
      let done_one () =
        decr remaining;
        if !remaining = 0 then k ()
      in
      List.iter (fun s -> Disk.write_page s.disk ~page data done_one) targets

(* Verified read with bounded retry and transparent mirror fallback:
   try the primary (one retry on a transient error), then the mirror the
   same way; a copy failing [verify] (checksum) goes straight to the other
   mirror — re-reading deterministic media cannot help. *)
let read_page t ~page ?(verify = fun (_ : bytes) -> true) k =
  let readable = List.filter (fun s -> s.status = Ok_) [ t.a; t.b ] in
  if readable = [] then raise (Both_mirrors_failed { op = "read_page"; page })
  else begin
    let rec try_sides sides ~retried ~last_err =
      match sides with
      | [] ->
          k (Error (Printf.sprintf "%s: no readable copy of page %d (%s)" t.name page last_err))
      | s :: rest -> (
          let fall_back err =
            if rest <> [] then Mrdb_sim.Trace.incr t.trace "duplex_read_fallbacks";
            try_sides rest ~retried:false ~last_err:err
          in
          Disk.read_page s.disk ~page (function
            | Error e ->
                if retried then fall_back e
                else begin
                  Mrdb_sim.Trace.incr t.trace "duplex_read_retries";
                  try_sides sides ~retried:true ~last_err:e
                end
            | Ok data ->
                if verify data then k (Ok data)
                else begin
                  Mrdb_sim.Trace.incr t.trace "duplex_read_checksum_failures";
                  fall_back "checksum verification failed"
                end))
    in
    try_sides readable ~retried:false ~last_err:"no mirror available"
  end

let side_of t which = match which with `Primary -> t.a | `Mirror -> t.b

let fail_side t which =
  let s = side_of t which in
  s.status <- Failed;
  Disk.fail s.disk;
  Mrdb_sim.Trace.incr t.trace "duplex_mirror_failures"

let fail_primary t = fail_side t `Primary
let fail_mirror t = fail_side t `Mirror

(* Resilver a replaced mirror from the survivor.  The replacement drive is
   written by new traffic from the moment it is installed (status
   [Rebuilding]); the copy loop reads the survivor through its timed FIFO
   queue, so a chunk copy submitted after a concurrent page write always
   observes that write — on both drives the newest data is queued last and
   wins. *)
let rebuild t which k =
  let s = side_of t which in
  let survivor = match which with `Primary -> t.b | `Mirror -> t.a in
  if s.status <> Failed then Mrdb_util.Fatal.misuse "Duplex.rebuild: side has not failed";
  if survivor.status <> Ok_ then
    Mrdb_util.Fatal.misuse "Duplex.rebuild: no healthy survivor to copy from";
  let suffix = match which with `Primary -> ".a'" | `Mirror -> ".b'" in
  s.disk <-
    Disk.create ~name:(t.name ^ suffix) t.sim ~params:t.params
      ~capacity_pages:t.capacity_pages;
  s.status <- Rebuilding;
  let chunk = t.params.Disk.pages_per_track in
  let copied = ref 0 in
  let rec copy_from first_page =
    if first_page >= t.capacity_pages then begin
      s.status <- Ok_;
      Mrdb_sim.Trace.incr t.trace "duplex_rebuilds";
      Mrdb_sim.Trace.add t.trace "duplex_pages_resilvered" !copied;
      k ()
    end
    else begin
      let pages = Stdlib.min chunk (t.capacity_pages - first_page) in
      let any_written = ref false in
      for p = first_page to first_page + pages - 1 do
        if Disk.is_written survivor.disk ~page:p then any_written := true
      done;
      (* Chunks never written on the survivor carry no data (new writes to
         them reach the replacement directly); skip the copy. *)
      if not !any_written then copy_from (first_page + pages)
      else
        Disk.read_track survivor.disk ~first_page ~pages (function
          | Error e ->
              (* The survivor died mid-resilver: the rebuild cannot finish. *)
              s.status <- Failed;
              Mrdb_sim.Trace.incr t.trace "duplex_rebuild_failures";
              ignore e;
              k ()
          | Ok data ->
              copied := !copied + pages;
              Disk.write_track s.disk ~first_page data (fun () ->
                  copy_from (first_page + pages)))
    end
  in
  copy_from 0

let crash_queue t =
  Disk.crash_queue t.a.disk;
  Disk.crash_queue t.b.disk

let with_page t ~page f =
  if t.a.status = Ok_ then Disk.with_page t.a.disk ~page f
  else if t.b.status = Ok_ then Disk.with_page t.b.disk ~page f
  else None

let install_page t ~page data =
  List.iter
    (fun s -> if s.status <> Failed then Disk.install_page s.disk ~page data)
    [ t.a; t.b ]
