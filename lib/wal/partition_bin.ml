open Mrdb_storage

exception Pool_exhausted

let inflight_slots = 4

(* Stable field offsets within a bin info block (see Stable_layout, fixed
   part = 160 bytes, then dir_size × i64 for the live directory followed by
   dir_size × i64 for the shadow directory).  The segment field stores
   segment+1 so that zero-initialized stable memory reads as "unused".

   A bin has up to two generations of log information:
   - the LIVE generation: the chain and buffer receiving new records;
   - the SHADOW generation: the pre-checkpoint records, parked by
     {!begin_cut} at checkpoint-copy time and released by
     {!discard_shadow} when the checkpoint transaction commits.  If a
     crash intervenes, recovery replays shadow before live.

   0 i64 segment+1 | 8 i64 partition | 16 u32 update_count |
   20 u32 pages_written | 24 i64 first_lsn | 32 i64 prev_lsn |
   40 u32 buf_block+1 | 44 u32 buf_used | 48 u32 buf_nrecords |
   52 inflight[4] × (u32 block+1, i64 lsn) | 100 u32 dir_len |
   104 i64 last_seq |
   112 i64 shadow_first_lsn | 120 i64 shadow_prev_lsn |
   128 u32 shadow_pages_written | 132 u32 shadow_buf_block+1 |
   136 u32 shadow_buf_used | 140 u32 shadow_buf_nrecords |
   144 u32 shadow_dir_len | 148..160 reserved |
   160 live dir | 160+8N shadow dir *)
let off_segment = 0
let off_partition = 8
let off_update_count = 16
let off_pages_written = 20
let off_first_lsn = 24
let off_prev_lsn = 32
let off_buf_block = 40
let off_buf_used = 44
let off_buf_nrecords = 48
let off_inflight = 52
let off_dir_len = 100
let off_last_seq = 104
let off_shadow_first = 112
let off_shadow_prev = 120
let off_shadow_pages = 128
let off_shadow_buf_block = 132
let off_shadow_buf_used = 136
let off_shadow_buf_nrecords = 140
let off_shadow_dir_len = 144
let off_dir = 160

(* One generation of chain state. *)
type chain = {
  mutable first_lsn : int64;
  mutable prev_lsn : int64;
  mutable pages_written : int;
  mutable buf_block : int; (* -1 = none *)
  mutable buf_used : int;
  mutable buf_nrecords : int;
  mutable dir : int64 array; (* current span, oldest first *)
}

let empty_chain () =
  {
    first_lsn = -1L;
    prev_lsn = -1L;
    pages_written = 0;
    buf_block = -1;
    buf_used = 0;
    buf_nrecords = 0;
    dir = [||];
  }

type t = {
  layout : Stable_layout.t;
  idx : int;
  base : int;
  part : Addr.partition;
  mutable update_count : int;
  live : chain;
  shadow : chain; (* shadow never owns a buffer being appended to *)
  mutable has_shadow : bool;
  inflight : (int * int64) option array;
  mutable last_seq : int;
  mutable page_scratch : bytes; (* reusable seal-page image buffer *)
}

let mem t = Stable_layout.mem t.layout
let pool t = Stable_layout.page_pool t.layout
let cfg t = Stable_layout.config t.layout
let dir_capacity t = (cfg t).Stable_layout.dir_size
let page_bytes t = (cfg t).Stable_layout.log_page_bytes

let payload_capacity t =
  Log_page.payload_capacity ~page_bytes:(page_bytes t) ~dir_size:(dir_capacity t)

let persist t =
  let m = mem t in
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_segment)
    (Int64.of_int (t.part.Addr.segment + 1));
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_partition)
    (Int64.of_int t.part.Addr.partition);
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_update_count) t.update_count;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_pages_written) t.live.pages_written;
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_first_lsn) t.live.first_lsn;
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_prev_lsn) t.live.prev_lsn;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_buf_block) (t.live.buf_block + 1);
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_buf_used) t.live.buf_used;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_buf_nrecords) t.live.buf_nrecords;
  Array.iteri
    (fun i slot ->
      let off = t.base + off_inflight + (12 * i) in
      match slot with
      | Some (block, lsn) ->
          Mrdb_hw.Stable_mem.put_u32 m ~off (block + 1);
          Mrdb_hw.Stable_mem.put_i64 m ~off:(off + 4) lsn
      | None ->
          Mrdb_hw.Stable_mem.put_u32 m ~off 0;
          Mrdb_hw.Stable_mem.put_i64 m ~off:(off + 4) (-1L))
    t.inflight;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_dir_len) (Array.length t.live.dir);
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_last_seq) (Int64.of_int t.last_seq);
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_shadow_first)
    (if t.has_shadow then t.shadow.first_lsn else -1L);
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_shadow_prev) t.shadow.prev_lsn;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_shadow_pages) t.shadow.pages_written;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_shadow_buf_block)
    (t.shadow.buf_block + 1);
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_shadow_buf_used) t.shadow.buf_used;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_shadow_buf_nrecords)
    t.shadow.buf_nrecords;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_shadow_dir_len)
    (if t.has_shadow then Array.length t.shadow.dir else 0);
  let n = dir_capacity t in
  Array.iteri
    (fun i lsn -> Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_dir + (8 * i)) lsn)
    t.live.dir;
  if t.has_shadow then
    Array.iteri
      (fun i lsn ->
        Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_dir + (8 * (n + i))) lsn)
      t.shadow.dir

(* Append-path persist: appending a record only advances the update
   counter, the live buffer cursor fields and the sequence watermark —
   every other stable field was persisted by the operation that last
   changed it (activate, seal_page, flush_complete, the cut protocol).
   Writing just these five fields keeps the per-record drain cost flat
   instead of re-serializing the whole info block and both directories. *)
let persist_append_meta t =
  let m = mem t in
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_update_count) t.update_count;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_buf_block) (t.live.buf_block + 1);
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_buf_used) t.live.buf_used;
  Mrdb_hw.Stable_mem.put_u32 m ~off:(t.base + off_buf_nrecords) t.live.buf_nrecords;
  Mrdb_hw.Stable_mem.put_i64 m ~off:(t.base + off_last_seq) (Int64.of_int t.last_seq)

let activate layout ~idx part =
  let t =
    {
      layout;
      idx;
      base = Stable_layout.bin_info_off layout idx;
      part;
      update_count = 0;
      live = empty_chain ();
      shadow = empty_chain ();
      has_shadow = false;
      inflight = Array.make inflight_slots None;
      last_seq = 0;
      page_scratch = Bytes.create 0;
    }
  in
  persist t;
  t

let load layout ~idx =
  let base = Stable_layout.bin_info_off layout idx in
  let m = Stable_layout.mem layout in
  let segment =
    Int64.to_int (Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_segment)) - 1
  in
  if segment < 0 then None
  else begin
    let cfg = Stable_layout.config layout in
    let n = cfg.Stable_layout.dir_size in
    let partition =
      Int64.to_int (Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_partition))
    in
    let dir_len = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_dir_len) in
    let shadow_dir_len = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_shadow_dir_len) in
    let shadow_first = Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_shadow_first) in
    let shadow_buf_block =
      Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_shadow_buf_block) - 1
    in
    let has_shadow = shadow_first >= 0L || shadow_buf_block >= 0 in
    Some
      {
        layout;
        idx;
        base;
        part = { Addr.segment; partition };
        update_count = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_update_count);
        live =
          {
            first_lsn = Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_first_lsn);
            prev_lsn = Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_prev_lsn);
            pages_written = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_pages_written);
            buf_block = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_buf_block) - 1;
            buf_used = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_buf_used);
            buf_nrecords = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_buf_nrecords);
            dir =
              Array.init dir_len (fun i ->
                  Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_dir + (8 * i)));
          };
        shadow =
          {
            first_lsn = shadow_first;
            prev_lsn = Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_shadow_prev);
            pages_written = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_shadow_pages);
            buf_block = shadow_buf_block;
            buf_used = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_shadow_buf_used);
            buf_nrecords =
              Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off_shadow_buf_nrecords);
            dir =
              Array.init shadow_dir_len (fun i ->
                  Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_dir + (8 * (n + i))));
          };
        has_shadow;
        inflight =
          Array.init inflight_slots (fun i ->
              let off = base + off_inflight + (12 * i) in
              let block = Mrdb_hw.Stable_mem.get_u32 m ~off - 1 in
              if block < 0 then None
              else Some (block, Mrdb_hw.Stable_mem.get_i64 m ~off:(off + 4)));
        last_seq =
          Int64.to_int (Mrdb_hw.Stable_mem.get_i64 m ~off:(base + off_last_seq));
        page_scratch = Bytes.create 0;
      }
  end

let clear_slot layout ~idx =
  let base = Stable_layout.bin_info_off layout idx in
  Mrdb_hw.Stable_mem.put_i64 (Stable_layout.mem layout) ~off:(base + off_segment) 0L

(* Pool blocks slot [idx] still owns after a crash — its live and shadow
   buffers and its in-flight pages — read straight from the stable fields
   so the page-pool allocator can be rebuilt before any bin is used. *)
let owned_blocks layout ~idx =
  let base = Stable_layout.bin_info_off layout idx in
  let m = Stable_layout.mem layout in
  let block off = Mrdb_hw.Stable_mem.get_u32 m ~off:(base + off) - 1 in
  List.filter
    (fun b -> b >= 0)
    (block off_buf_block :: block off_shadow_buf_block
    :: List.init inflight_slots (fun i -> block (off_inflight + (12 * i))))

let idx t = t.idx
let partition t = t.part
let update_count t = t.update_count
let first_lsn t = t.live.first_lsn
let pages_written t = t.live.pages_written
let buffered_records t = t.live.buf_nrecords
let directory t = Array.copy t.live.dir
let last_seq t = t.last_seq
let has_shadow t = t.has_shadow

let oldest_lsn t =
  if t.has_shadow && t.shadow.first_lsn >= 0L then t.shadow.first_lsn
  else t.live.first_lsn

let inflight_count t =
  Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.inflight

let has_outstanding t =
  t.live.buf_nrecords > 0 || inflight_count t > 0 || t.live.first_lsn >= 0L
  || t.has_shadow

let chain_buf_off t chain =
  Mrdb_hw.Stable_mem.Blocks.offset_of_block (pool t) chain.buf_block
  + Log_page.payload_off ~dir_size:(dir_capacity t)

let buf_off t = chain_buf_off t t.live

let ensure_buffer t =
  if t.live.buf_block < 0 then
    match Mrdb_hw.Stable_mem.Blocks.alloc (pool t) with
    | None -> raise Pool_exhausted
    | Some b ->
        t.live.buf_block <- b;
        t.live.buf_used <- 0;
        t.live.buf_nrecords <- 0

let note_appended t ~frame ~seq =
  t.live.buf_used <- t.live.buf_used + frame;
  t.live.buf_nrecords <- t.live.buf_nrecords + 1;
  t.update_count <- t.update_count + 1;
  if seq > t.last_seq then t.last_seq <- seq;
  persist_append_meta t

let append t buf ~pos ~len =
  let frame = 2 + len in
  if frame > payload_capacity t then
    Mrdb_util.Fatal.misuse "Partition_bin.append: record exceeds page capacity";
  ensure_buffer t;
  if t.live.buf_used + frame > payload_capacity t then `Page_full
  else begin
    (* The SLB stages chains with the same [u16 len | record] framing as
       the bin buffer, so the drain forwards the whole frame — header at
       [pos - 2] — with one stable-memory write and zero copies or
       decodes in between.  Frames are staged at the payload offset
       inside the pool block so that sealing composes the page image in
       place. *)
    Mrdb_hw.Stable_mem.write_sub (mem t) ~off:(buf_off t + t.live.buf_used)
      buf ~pos:(pos - 2) ~len:frame;
    note_appended t ~frame ~seq:(Log_record.peek_seq buf ~pos);
    `Buffered
  end

let can_seal t = Array.exists (fun s -> s = None) t.inflight

let seal_page t ~log_disk =
  if t.live.buf_block < 0 || t.live.buf_nrecords = 0 then None
  else begin
    let slot =
      let rec find i =
        if i >= inflight_slots then raise Pool_exhausted
        else if t.inflight.(i) = None then i
        else find (i + 1)
      in
      find 0
    in
    let embed, dir' =
      if Array.length t.live.dir >= dir_capacity t then (t.live.dir, [||])
      else ([||], t.live.dir)
    in
    let lsn = Log_disk.alloc_lsn log_disk in
    (* Compose the page image around the staged payload: header via
       [prepare_into] over the bin's reusable page buffer (every downstream
       consumer — stable memory, the disk submit path, the archive tap —
       captures its own copy synchronously), payload blitted straight out
       of stable memory (no intermediate copy), CRC stamped by [finish]. *)
    if Bytes.length t.page_scratch <> page_bytes t then
      t.page_scratch <- Bytes.create (page_bytes t);
    let image = t.page_scratch in
    Log_page.prepare_into ~dir_size:(dir_capacity t) ~lsn ~part:t.part
      ~prev_lsn:t.live.prev_lsn ~dir:embed ~used:t.live.buf_used
      ~nrecords:t.live.buf_nrecords image;
    Mrdb_hw.Stable_mem.blit_out (mem t) ~off:(buf_off t) image
      ~pos:(Log_page.payload_off ~dir_size:(dir_capacity t))
      ~len:t.live.buf_used;
    Log_page.finish image;
    (* Overwrite the pool block with the finished image so a crash before
       the disk write completes can still recover the page. *)
    Mrdb_hw.Stable_mem.write (mem t)
      ~off:(Mrdb_hw.Stable_mem.Blocks.offset_of_block (pool t) t.live.buf_block)
      image;
    t.inflight.(slot) <- Some (t.live.buf_block, lsn);
    t.live.buf_block <- -1;
    t.live.buf_used <- 0;
    t.live.buf_nrecords <- 0;
    if t.live.first_lsn < 0L then t.live.first_lsn <- lsn;
    t.live.prev_lsn <- lsn;
    t.live.pages_written <- t.live.pages_written + 1;
    t.live.dir <- Array.append dir' [| lsn |];
    persist t;
    Some (lsn, image)
  end

let flush_complete t ~lsn =
  let found = ref false in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (block, l) when l = lsn ->
          Mrdb_hw.Stable_mem.Blocks.free (pool t) block;
          t.inflight.(i) <- None;
          found := true
      | Some _ | None -> ())
    t.inflight;
  if not !found then
    Mrdb_util.Fatal.misuse (Printf.sprintf "Partition_bin.flush_complete: lsn %Ld not in flight" lsn);
  persist t

let inflight_lsns t =
  Array.to_list t.inflight |> List.filter_map (Option.map snd)

let read_inflight t ~lsn =
  Array.to_list t.inflight
  |> List.find_map (fun slot ->
         match slot with
         | Some (block, l) when l = lsn ->
             Some
               (Mrdb_hw.Stable_mem.read (mem t)
                  ~off:(Mrdb_hw.Stable_mem.Blocks.offset_of_block (pool t) block)
                  ~len:(page_bytes t))
         | Some _ | None -> None)

(* -- checkpoint cut protocol ----------------------------------------------- *)

let copy_chain ~src ~dst =
  dst.first_lsn <- src.first_lsn;
  dst.prev_lsn <- src.prev_lsn;
  dst.pages_written <- src.pages_written;
  dst.buf_block <- src.buf_block;
  dst.buf_used <- src.buf_used;
  dst.buf_nrecords <- src.buf_nrecords;
  dst.dir <- src.dir

let begin_cut t =
  if t.has_shadow then `Shadow_busy
  else if
    t.live.first_lsn < 0L && t.live.buf_nrecords = 0 && inflight_count t = 0
  then `Nothing_to_cut
  else begin
    copy_chain ~src:t.live ~dst:t.shadow;
    copy_chain ~src:(empty_chain ()) ~dst:t.live;
    t.has_shadow <- true;
    t.update_count <- 0;
    persist t;
    `Cut
  end

let discard_shadow t =
  if t.has_shadow then begin
    if t.shadow.buf_block >= 0 then
      Mrdb_hw.Stable_mem.Blocks.free (pool t) t.shadow.buf_block;
    copy_chain ~src:(empty_chain ()) ~dst:t.shadow;
    t.has_shadow <- false;
    persist t
  end

let buffer t ~shadow =
  let c = if shadow then t.shadow else t.live in
  if (shadow && not t.has_shadow) || c.buf_block < 0 || c.buf_nrecords = 0 then None
  else
    let len = c.buf_used in
    let buf = Mrdb_hw.Stable_mem.read (mem t) ~off:(chain_buf_off t c) ~len in
    Some { Log_page.buf; pos = 0; len }

let live_chain_spec t = (t.live.first_lsn, Array.to_list t.live.dir)

let shadow_chain_spec t =
  if t.has_shadow then Some (t.shadow.first_lsn, Array.to_list t.shadow.dir)
  else None

let reset_after_checkpoint t =
  t.update_count <- 0;
  if t.live.buf_block >= 0 then begin
    Mrdb_hw.Stable_mem.Blocks.free (pool t) t.live.buf_block;
    t.live.buf_block <- -1
  end;
  copy_chain ~src:(empty_chain ()) ~dst:t.live;
  discard_shadow t;
  persist t
