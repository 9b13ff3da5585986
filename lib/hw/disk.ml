type params = {
  page_bytes : int;
  pages_per_track : int;
  seek_avg_us : float;
  seek_near_us : float;
  settle_us : float;
  page_transfer_us : float;
  interleaved : bool;
}

(* 1987-class high-performance drive, in the spirit of §3.1: two heads per
   surface halve the seek distance, and log traffic seeks only between
   sibling pages.  An 8 KB page at ~2 MB/s transfers in ~4 ms. *)
let default_log_params ~page_bytes =
  {
    page_bytes;
    pages_per_track = 6;
    seek_avg_us = 12_000.0;
    seek_near_us = 4_000.0;
    settle_us = 1_000.0;
    page_transfer_us = float_of_int page_bytes /. 2.0e6 *. 1e6;
    interleaved = true;
  }

let default_ckpt_params ~page_bytes =
  {
    page_bytes;
    pages_per_track = 6;
    seek_avg_us = 12_000.0;
    seek_near_us = 4_000.0;
    settle_us = 1_000.0;
    page_transfer_us = float_of_int page_bytes /. 2.0e6 *. 1e6;
    interleaved = false;
  }

type fault_hook = {
  on_read : page:int -> string option;
  on_crash_tear : page:int -> len:int -> int option;
}

type op =
  | Write of { page : int; data : bytes; k : unit -> unit }
  | Read of { page : int; k : (bytes, string) result -> unit }
  | Write_track of { first_page : int; data : bytes; k : unit -> unit }
  | Read_track of { first_page : int; pages : int; k : (bytes, string) result -> unit }

type t = {
  sim : Mrdb_sim.Sim.t;
  name : string;
  params : params;
  store : bytes option array;
  queue : op Queue.t;
  mutable servicing : bool;
  mutable inflight : op option; (* the op under service (torn-write support) *)
  mutable last_page : int; (* for sequential-access detection; -2 = none *)
  mutable busy_until : float;
  mutable failed : bool;
  mutable hook : fault_hook option;
  mutable ops : int;
  mutable pages_written : int;
  mutable pages_read : int;
  mutable busy_us : float;
  (* Submit-time copies are mandatory (the caller may reuse its buffer
     before the simulated transfer completes), but the copies themselves
     recycle: completed ops return their buffers here and the next submit
     blits into a spare instead of allocating.  Capped so a burst cannot
     retain unbounded scratch. *)
  mutable spare_pages : bytes list; (* page_bytes-sized, for Write ops *)
  mutable spare_page_count : int;
  mutable spare_tracks : bytes list; (* track images, at most two *)
}

let create ?(name = "disk") sim ~params ~capacity_pages =
  if capacity_pages <= 0 then Mrdb_util.Fatal.misuse "Disk.create: capacity";
  {
    sim;
    name;
    params;
    store = Array.make capacity_pages None;
    queue = Queue.create ();
    servicing = false;
    inflight = None;
    last_page = -2;
    busy_until = 0.0;
    failed = false;
    hook = None;
    ops = 0;
    pages_written = 0;
    pages_read = 0;
    busy_us = 0.0;
    spare_pages = [];
    spare_page_count = 0;
    spare_tracks = [];
  }

let name t = t.name
let params t = t.params
let capacity_pages t = Array.length t.store

let check_page t page =
  if page < 0 || page >= Array.length t.store then
    Mrdb_util.Fatal.misuse (Printf.sprintf "%s: page %d out of range" t.name page)

(* Positioning cost to reach [page] given the head's last position.  An
   interleaved disk reaches the logically-next sector after one sector pass
   (the interleave gap); otherwise short or average seek plus settle. *)
let position_us t page =
  if t.last_page >= 0 && page = t.last_page + 1 then
    if t.params.interleaved then t.params.page_transfer_us
    else
      (* Missed the next physical sector: wait most of a revolution. *)
      t.params.page_transfer_us *. float_of_int t.params.pages_per_track
  else if
    t.last_page >= 0
    && abs (page - t.last_page) < t.params.pages_per_track * 16
  then t.params.seek_near_us +. t.params.settle_us
  else t.params.seek_avg_us +. t.params.settle_us

let op_duration t op =
  match op with
  | Write { page; _ } | Read { page; _ } ->
      position_us t page +. t.params.page_transfer_us
  | Write_track { first_page; data; _ } ->
      let pages = Bytes.length data / t.params.page_bytes in
      (* Track mode transfers at double rate. *)
      position_us t first_page
      +. (float_of_int pages *. t.params.page_transfer_us /. 2.0)
  | Read_track { first_page; pages; _ } ->
      position_us t first_page
      +. (float_of_int pages *. t.params.page_transfer_us /. 2.0)

(* Transient-read decision: consult the fault hook once per read op (the
   injector counts attempts itself).  [None] in production — the healthy
   path takes one branch. *)
let read_fault t ~page =
  match t.hook with None -> None | Some h -> h.on_read ~page

let media_failed_msg t = t.name ^ ": media failure"

let private_page_copy t data =
  match t.spare_pages with
  | b :: rest ->
      t.spare_pages <- rest;
      t.spare_page_count <- t.spare_page_count - 1;
      Bytes.blit data 0 b 0 (Bytes.length data);
      b
  | [] -> Bytes.copy data

let recycle_page t b =
  if t.spare_page_count < 16 then begin
    t.spare_pages <- b :: t.spare_pages;
    t.spare_page_count <- t.spare_page_count + 1
  end

let private_track_copy t data =
  let len = Bytes.length data in
  match t.spare_tracks with
  | b :: rest when Bytes.length b = len ->
      t.spare_tracks <- rest;
      Bytes.blit data 0 b 0 len;
      b
  | [ a; b ] when Bytes.length b = len ->
      t.spare_tracks <- [ a ];
      Bytes.blit data 0 b 0 len;
      b
  | _ -> Bytes.copy data

let recycle_track t b =
  t.spare_tracks <-
    (match t.spare_tracks with a :: _ -> [ b; a ] | [] -> [ b ])

let apply t op =
  match op with
  | Write { page; data; k } ->
      if not t.failed then begin
        (* The store page is mutated in place when present: the platter
           already owns a buffer of exactly this size, and every read out
           of the store copies.  The op's private buffer goes back to the
           spare pool either way. *)
        (match t.store.(page) with
        | Some b ->
            Bytes.blit data 0 b 0 (Bytes.length data);
            recycle_page t data
        | None -> t.store.(page) <- Some data);
        t.pages_written <- t.pages_written + 1
      end
      else recycle_page t data;
      (* A failed drive's electronics still complete the request; the bytes
         just never reach the platters.  Completion must fire either way or
         a duplexed write against a dying mirror would hang forever. *)
      t.last_page <- page;
      k ()
  | Read { page; k } ->
      t.last_page <- page;
      if t.failed then k (Error (media_failed_msg t))
      else begin
        match read_fault t ~page with
        | Some msg -> k (Error msg)
        | None ->
            let data =
              match t.store.(page) with
              | Some b -> Bytes.copy b
              | None -> Bytes.make t.params.page_bytes '\000'
            in
            t.pages_read <- t.pages_read + 1;
            k (Ok data)
      end
  | Write_track { first_page; data; k } ->
      let pb = t.params.page_bytes in
      let pages = Bytes.length data / pb in
      if not t.failed then begin
        for i = 0 to pages - 1 do
          match t.store.(first_page + i) with
          | Some b -> Bytes.blit data (i * pb) b 0 pb
          | None -> t.store.(first_page + i) <- Some (Bytes.sub data (i * pb) pb)
        done;
        t.pages_written <- t.pages_written + pages
      end;
      recycle_track t data;
      t.last_page <- first_page + pages - 1;
      k ()
  | Read_track { first_page; pages; k } ->
      t.last_page <- first_page + pages - 1;
      if t.failed then k (Error (media_failed_msg t))
      else begin
        match read_fault t ~page:first_page with
        | Some msg -> k (Error msg)
        | None ->
            let buf = Bytes.make (pages * t.params.page_bytes) '\000' in
            for i = 0 to pages - 1 do
              match t.store.(first_page + i) with
              | Some b -> Bytes.blit b 0 buf (i * t.params.page_bytes) t.params.page_bytes
              | None -> ()
            done;
            t.pages_read <- t.pages_read + pages;
            k (Ok buf)
      end

let rec service t =
  match Queue.take_opt t.queue with
  | None -> t.servicing <- false
  | Some op ->
      t.servicing <- true;
      t.inflight <- Some op;
      let duration = op_duration t op in
      t.ops <- t.ops + 1;
      t.busy_us <- t.busy_us +. duration;
      t.busy_until <- Mrdb_sim.Sim.now t.sim +. duration;
      Mrdb_sim.Sim.schedule t.sim ~delay:duration (fun () ->
          t.inflight <- None;
          apply t op;
          service t)

let submit t op =
  Queue.add op t.queue;
  if not t.servicing then service t

let write_page t ~page data k =
  check_page t page;
  if Bytes.length data <> t.params.page_bytes then
    Mrdb_util.Fatal.misuse (Printf.sprintf "%s: write_page size %d <> page size %d" t.name
                   (Bytes.length data) t.params.page_bytes);
  submit t (Write { page; data = private_page_copy t data; k })

let read_page t ~page k =
  check_page t page;
  submit t (Read { page; k })

let write_track t ~first_page data k =
  check_page t first_page;
  if Bytes.length data mod t.params.page_bytes <> 0 then
    Mrdb_util.Fatal.misuse (t.name ^ ": write_track size not a page multiple");
  let pages = Bytes.length data / t.params.page_bytes in
  if pages = 0 then Mrdb_util.Fatal.misuse (t.name ^ ": write_track empty");
  check_page t (first_page + pages - 1);
  submit t (Write_track { first_page; data = private_track_copy t data; k })

let read_track t ~first_page ~pages k =
  check_page t first_page;
  if pages <= 0 then Mrdb_util.Fatal.misuse (t.name ^ ": read_track pages");
  check_page t (first_page + pages - 1);
  submit t (Read_track { first_page; pages; k })

let queue_depth t = Queue.length t.queue + if t.servicing then 1 else 0

(* Apply the kept prefix of an interrupted write: whole pages land intact,
   the partial page is old content (or zeros) with the prefix overlaid —
   exactly what a head losing power mid-sector leaves behind. *)
let tear_write t ~first_page data ~keep =
  let pb = t.params.page_bytes in
  let keep = Stdlib.max 0 (Stdlib.min keep (Bytes.length data)) in
  let full = keep / pb in
  for i = 0 to full - 1 do
    t.store.(first_page + i) <- Some (Bytes.sub data (i * pb) pb)
  done;
  let rem = keep - (full * pb) in
  if rem > 0 then begin
    let page = first_page + full in
    let base =
      match t.store.(page) with Some b -> Bytes.copy b | None -> Bytes.make pb '\000'
    in
    Bytes.blit data (full * pb) base 0 rem;
    t.store.(page) <- Some base
  end

let crash_queue t =
  (* A write under service at the instant of failure may have transferred a
     prefix of its sectors: the fault hook decides how many bytes stuck. *)
  (match (t.inflight, t.hook) with
  | Some (Write { page; data; _ }), Some h when not t.failed -> (
      match h.on_crash_tear ~page ~len:(Bytes.length data) with
      | Some keep -> tear_write t ~first_page:page data ~keep
      | None -> ())
  | Some (Write_track { first_page; data; _ }), Some h when not t.failed -> (
      match h.on_crash_tear ~page:first_page ~len:(Bytes.length data) with
      | Some keep -> tear_write t ~first_page data ~keep
      | None -> ())
  | _ -> ());
  t.inflight <- None;
  Queue.clear t.queue;
  t.servicing <- false;
  t.last_page <- -2
let busy_until t = t.busy_until

let fail t = t.failed <- true
let failed t = t.failed

let set_fault_hook t hook = t.hook <- hook

let corrupt_page t ~page ~at ~len =
  check_page t page;
  let pb = t.params.page_bytes in
  if at < 0 || len <= 0 || at + len > pb then
    Mrdb_util.Fatal.misuse (t.name ^ ": corrupt_page range");
  let base =
    match t.store.(page) with Some b -> b | None -> Bytes.make pb '\000'
  in
  for i = at to at + len - 1 do
    Bytes.set base i (Char.chr (Char.code (Bytes.get base i) lxor 0xFF))
  done;
  t.store.(page) <- Some base

let with_page t ~page f =
  check_page t page;
  Option.map f t.store.(page)

let install_page t ~page data =
  check_page t page;
  if Bytes.length data <> t.params.page_bytes then
    Mrdb_util.Fatal.misuse
      (Printf.sprintf "%s: install_page size %d <> page size %d" t.name
         (Bytes.length data) t.params.page_bytes);
  if not t.failed then begin
    (match t.store.(page) with
    | Some b -> Bytes.blit data 0 b 0 (Bytes.length data)
    | None -> t.store.(page) <- Some (Bytes.copy data))
  end

let is_written t ~page =
  check_page t page;
  t.store.(page) <> None

let stats_ops t = t.ops
let stats_pages_written t = t.pages_written
let stats_pages_read t = t.pages_read
let stats_busy_us t = t.busy_us
