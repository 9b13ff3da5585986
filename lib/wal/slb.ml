exception Slb_full

(* Block layout: u32 txn_id | u32 next_block+1 (0 = none) | u32 used |
   payload of u16-framed records.  Block ids are region-local. *)
let hdr_txn = 0
let hdr_next = 4
let hdr_used = 8
let payload_off = 12

type chain = { mutable first : int; mutable last : int }

(* Volatile group-commit staging: a transaction's framed records accumulate
   here (not in stable memory) until the group flushes.  Reused through the
   region's pool, growing by doubling — the steady-state staged append
   allocates nothing. *)
type stage = {
  mutable sb : bytes;
  mutable sused : int;
}

type region = {
  owner : int; (* region id = owning executor id *)
  layout : Stable_layout.t;
  blocks : Mrdb_hw.Stable_mem.Blocks.alloc;
  chains : (int, chain) Hashtbl.t; (* txn -> uncommitted chain *)
  scratch : bytes; (* append framing buffer: one frame composed, one write *)
  rscratch : bytes; (* drain read buffer: one block payload walked in place *)
  recorder : Mrdb_obs.Flight_recorder.t option ref; (* shared with t *)
  stages : (int, stage) Hashtbl.t; (* txn -> volatile staged records *)
  mutable stage_pool : stage list;
  (* Group-flush materialization batch: composed block images (header +
     payload per block-sized slot) and their allocated block ids, written
     to stable memory in coalesced runs by [flush_batch]. *)
  mutable batch : bytes;
  mutable batch_ids : int array;
  mutable batch_n : int;
}

type t = {
  layout : Stable_layout.t;
  regions : region array;
  mutable draining : bool;
  recorder : Mrdb_obs.Flight_recorder.t option ref;
}

let mk_region layout recorder owner =
  (* Both scratches are sized to a block once, up front: the steady-state
     append and drain paths never allocate. *)
  let block_bytes = (Stable_layout.config layout).Stable_layout.slb_block_bytes in
  {
    owner;
    layout;
    blocks = Stable_layout.slb_blocks layout ~region:owner;
    chains = Hashtbl.create 64;
    scratch = Bytes.create block_bytes;
    rscratch = Bytes.create block_bytes;
    recorder;
    stages = Hashtbl.create 16;
    stage_pool = [];
    batch = Bytes.create 0;
    batch_ids = [||];
    batch_n = 0;
  }

let create layout =
  let recorder = ref None in
  {
    layout;
    regions =
      Array.init (Stable_layout.regions layout) (mk_region layout recorder);
    draining = false;
    recorder;
  }

let set_recorder t recorder = t.recorder := recorder

let regions t = Array.length t.regions

let region t i =
  if i < 0 || i >= Array.length t.regions then
    Mrdb_util.Fatal.misuse "Slb.region: bad region id";
  t.regions.(i)

module Region = struct
  type t = region

  let mem (r : t) = Stable_layout.mem r.layout
  let block_off r i = Mrdb_hw.Stable_mem.Blocks.offset_of_block r.blocks i
  let block_bytes r = Mrdb_hw.Stable_mem.Blocks.block_bytes r.blocks

  let get_used r b = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(block_off r b + hdr_used)
  let set_used r b v = Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(block_off r b + hdr_used) v
  let get_next r b =
    let raw = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(block_off r b + hdr_next) in
    raw - 1
  let set_next r b v = Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(block_off r b + hdr_next) (v + 1)
  let set_txn r b v = Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(block_off r b + hdr_txn) v

  let capacity_ring (r : t) = Stable_layout.region_ring_capacity r.layout

  let ring_off (r : t) i =
    Stable_layout.committed_entry_off r.layout ~region:r.owner
      (i mod capacity_ring r)

  (* Individual entry-field readers: the drain-side merge runs per record
     batch and must not build (txn, first, seq) tuples. *)
  let ring_txn (r : t) i = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(ring_off r i)

  let ring_first (r : t) i =
    Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(ring_off r i + 4) - 1

  let ring_seq (r : t) i = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(ring_off r i + 8)

  let ring_put (r : t) i ~txn ~first ~seq =
    let off = ring_off r i in
    Mrdb_hw.Stable_mem.put_u32 (mem r) ~off txn;
    Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(off + 4) (first + 1);
    Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(off + 8) seq

  let alloc_block r ~txn_id =
    match Mrdb_hw.Stable_mem.Blocks.alloc r.blocks with
    | None -> raise Slb_full
    | Some b ->
        set_txn r b txn_id;
        set_next r b (-1);
        set_used r b 0;
        b

  (* The frame (u16 length + record) a record occupies, refused up front
     when it could never fit a block. *)
  let frame_size r ~what record =
    let frame = 2 + Log_record.encoded_size record in
    if frame > block_bytes r - payload_off then
      Mrdb_util.Fatal.misuse ("Slb.Region." ^ what ^ ": record exceeds block size");
    frame

  (* Compose the frame at [pos] of [b]: the one place a REDO record is
     encoded on its way to the log. *)
  let put_frame record b ~pos ~frame =
    Mrdb_util.Codec.put_u16 b pos (frame - 2);
    let stop = Log_record.encode_into record b ~pos:(pos + 2) in
    if stop <> pos + frame then
      Mrdb_util.Fatal.invariantf ~mod_:"Slb"
        "encoded %d bytes but encoded_size said %d" (stop - pos - 2) (frame - 2)

  let note_append (r : t) ~txn_id ~frame =
    match !(r.recorder) with
    | None -> ()
    | Some fr ->
        Mrdb_obs.Flight_recorder.slb_append fr ~txn:txn_id ~bytes:frame
          ~exec:r.owner

  let append r ~txn_id record =
    let frame = frame_size r ~what:"append" record in
    (* Compose the whole frame in the reusable scratch, then issue exactly
       one stable-memory write — no per-record buffers. *)
    put_frame record r.scratch ~pos:0 ~frame;
    let chain =
      (* find + Not_found, not find_opt: the per-append [Some] box is real
         money at this call frequency. *)
      match Hashtbl.find r.chains txn_id with
      | c -> c
      | exception Not_found ->
          let b = alloc_block r ~txn_id in
          let c = { first = b; last = b } in
          Hashtbl.add r.chains txn_id c;
          c
    in
    let used = get_used r chain.last in
    let target, used =
      if payload_off + used + frame <= block_bytes r then (chain.last, used)
      else begin
        let b = alloc_block r ~txn_id in
        set_next r chain.last b;
        chain.last <- b;
        (b, 0) (* alloc_block just zeroed the new block's used counter *)
      end
    in
    let off = block_off r target + payload_off + used in
    Mrdb_hw.Stable_mem.write_sub (mem r) ~off r.scratch ~pos:0 ~len:frame;
    set_used r target (used + frame);
    note_append r ~txn_id ~frame

  (* -- group-commit staging ------------------------------------------------ *)

  let stage_append r ~txn_id record =
    let frame = frame_size r ~what:"stage_append" record in
    let st =
      match Hashtbl.find r.stages txn_id with
      | st -> st
      | exception Not_found ->
          let st =
            match r.stage_pool with
            | st :: rest ->
                r.stage_pool <- rest;
                st.sused <- 0;
                st
            | [] -> { sb = Bytes.create 256; sused = 0 }
          in
          Hashtbl.add r.stages txn_id st;
          st
    in
    if st.sused + frame > Bytes.length st.sb then begin
      let cap = ref (Stdlib.max 256 (Bytes.length st.sb)) in
      while st.sused + frame > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit st.sb 0 nb 0 st.sused;
      st.sb <- nb
    end;
    put_frame record st.sb ~pos:st.sused ~frame;
    st.sused <- st.sused + frame;
    note_append r ~txn_id ~frame

  let stage_discard r ~txn_id =
    match Hashtbl.find_opt r.stages txn_id with
    | None -> ()
    | Some st ->
        Hashtbl.remove r.stages txn_id;
        r.stage_pool <- st :: r.stage_pool

  let ensure_batch_room r n =
    let bb = block_bytes r in
    if n * bb > Bytes.length r.batch then begin
      let cap = ref (Stdlib.max bb (Bytes.length r.batch)) in
      while n * bb > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit r.batch 0 nb 0 (r.batch_n * bb);
      r.batch <- nb
    end;
    if n > Array.length r.batch_ids then begin
      let ni = Array.make (Stdlib.max 8 (2 * Array.length r.batch_ids)) (-1) in
      Array.blit r.batch_ids 0 ni 0 r.batch_n;
      r.batch_ids <- ni
    end

  (* Turn a staged transaction's frames into chained block images inside
     the region's batch buffer (allocating the blocks now, writing nothing
     to stable memory yet) and register the chain as uncommitted.  The
     caller must run [flush_batch] before committing the chain — the ring
     entry is the commit point and must not precede the block contents.
     On [Slb_full] partway through, this call's blocks go back to the
     allocator, the batch rewinds and the stage stays put, so the chain
     can be materialized again once blocks are freed. *)
  let materialize r ~txn_id =
    match Hashtbl.find r.stages txn_id with
    | exception Not_found -> () (* read-only transaction: nothing staged *)
    | st ->
        let bb = block_bytes r in
        let batch0 = r.batch_n in
        let first = ref (-1) and last_slot = ref (-1) and last_b = ref (-1) in
        let cur_used = ref 0 in
        let place buf ~pos ~len =
          let frame = 2 + len in
          if !last_slot < 0 || payload_off + !cur_used + frame > bb then begin
            let b =
              match Mrdb_hw.Stable_mem.Blocks.alloc r.blocks with
              | None -> raise Slb_full
              | Some b -> b
            in
            ensure_batch_room r (r.batch_n + 1);
            let slot = r.batch_n in
            r.batch_n <- slot + 1;
            r.batch_ids.(slot) <- b;
            let off = slot * bb in
            Mrdb_util.Codec.put_u32 r.batch (off + hdr_txn) txn_id;
            Mrdb_util.Codec.put_u32 r.batch (off + hdr_next) 0;
            if !last_slot >= 0 then begin
              (* Patch the previous image: link + final used count. *)
              Mrdb_util.Codec.put_u32 r.batch ((!last_slot * bb) + hdr_next)
                (b + 1);
              Mrdb_util.Codec.put_u32 r.batch ((!last_slot * bb) + hdr_used)
                !cur_used
            end
            else first := b;
            last_slot := slot;
            last_b := b;
            cur_used := 0
          end;
          Bytes.blit buf (pos - 2) r.batch
            ((!last_slot * bb) + payload_off + !cur_used)
            frame;
          cur_used := !cur_used + frame
        in
        (match Log_page.iter_frames st.sb ~pos:0 ~used:st.sused ~f:place with
        | () -> ()
        | exception Slb_full ->
            for slot = batch0 to r.batch_n - 1 do
              Mrdb_hw.Stable_mem.Blocks.free r.blocks r.batch_ids.(slot)
            done;
            r.batch_n <- batch0;
            raise Slb_full);
        Mrdb_util.Codec.put_u32 r.batch ((!last_slot * bb) + hdr_used) !cur_used;
        Hashtbl.remove r.stages txn_id;
        Hashtbl.replace r.chains txn_id { first = !first; last = !last_b };
        r.stage_pool <- st :: r.stage_pool

  (* Write the materialized batch to stable memory, coalescing runs of
     consecutive block ids into single writes (the block allocator scans
     forward from a hint, so a whole group's blocks are usually one run).
     Returns the number of stable-memory writes issued. *)
  let flush_batch r =
    let bb = block_bytes r in
    let writes = ref 0 in
    let i = ref 0 in
    while !i < r.batch_n do
      let j = ref (!i + 1) in
      while !j < r.batch_n && r.batch_ids.(!j) = r.batch_ids.(!j - 1) + 1 do
        incr j
      done;
      let run = !j - !i in
      Mrdb_hw.Stable_mem.write_sub (mem r)
        ~off:(block_off r r.batch_ids.(!i))
        r.batch ~pos:(!i * bb) ~len:(run * bb);
      incr writes;
      i := !j
    done;
    r.batch_n <- 0;
    !writes

  (* One block-sized read into the shared scratch per block, then each
     frame handed to [f] in place — no per-record decode, no per-payload
     copies.  The u16 frame header always precedes the payload at
     [pos - 2], which lets consumers forward the whole frame verbatim. *)
  let iter_chain r first ~f =
    let b = ref first in
    while !b >= 0 do
      let used = get_used r !b in
      Mrdb_hw.Stable_mem.blit_out (mem r)
        ~off:(block_off r !b + payload_off)
        r.rscratch ~pos:0 ~len:used;
      Log_page.iter_frames r.rscratch ~pos:0 ~used ~f;
      b := get_next r !b
    done

  let free_chain r first =
    let b = ref first in
    while !b >= 0 do
      let next = get_next r !b in
      Mrdb_hw.Stable_mem.Blocks.free r.blocks !b;
      b := next
    done

  let commit (r : t) ~txn_id =
    (* A still-staged chain must reach stable memory before the ring entry
       makes the transaction durable; normally the group flush has already
       materialized the whole batch, so this is a no-op fallback for
       stragglers committed individually. *)
    if Hashtbl.mem r.stages txn_id then begin
      materialize r ~txn_id;
      ignore (flush_batch r : int)
    end;
    match Hashtbl.find_opt r.chains txn_id with
    | None -> () (* read-only transaction: nothing to log *)
    | Some chain ->
        let head = Stable_layout.committed_head r.layout ~region:r.owner in
        let tail = Stable_layout.committed_tail r.layout ~region:r.owner in
        if tail - head >= capacity_ring r then raise Slb_full;
        (* Stamp the global commit sequence into the entry: the total order
           the recovery side merges the striped rings by.  Burning a
           sequence number on a commit that then dies before the tail
           advance is harmless — the merge only sorts, gaps are fine. *)
        let seq = Stable_layout.commit_seq r.layout in
        ring_put r tail ~txn:txn_id ~first:chain.first ~seq;
        Stable_layout.set_commit_seq r.layout (seq + 1);
        (* Advancing the tail cursor makes the commit durable. *)
        Stable_layout.set_committed_tail r.layout ~region:r.owner (tail + 1);
        Hashtbl.remove r.chains txn_id

  let abort r ~txn_id =
    stage_discard r ~txn_id;
    match Hashtbl.find_opt r.chains txn_id with
    | None -> ()
    | Some chain ->
        free_chain r chain.first;
        Hashtbl.remove r.chains txn_id

  let pending_committed (r : t) =
    Stable_layout.committed_tail r.layout ~region:r.owner
    - Stable_layout.committed_head r.layout ~region:r.owner

  let uncommitted_count r = Hashtbl.length r.chains + Hashtbl.length r.stages
  let blocks_free r = Mrdb_hw.Stable_mem.Blocks.free_count r.blocks

  (* Sequence number of the oldest undrained commit; -1 when none.  An int
     sentinel instead of an option: the N-way merge calls this once per
     region per drained transaction and must not allocate. *)
  let head_seq (r : t) =
    let head = Stable_layout.committed_head r.layout ~region:r.owner in
    let tail = Stable_layout.committed_tail r.layout ~region:r.owner in
    if head >= tail then -1 else ring_seq r head

  let drain_one (r : t) ~f =
    let head = Stable_layout.committed_head r.layout ~region:r.owner in
    let tail = Stable_layout.committed_tail r.layout ~region:r.owner in
    if head >= tail then false
    else begin
      let txn_id = ring_txn r head in
      let first = ring_first r head in
      iter_chain r first ~f:(fun buf ~pos ~len -> f ~txn_id buf ~pos ~len);
      free_chain r first;
      Stable_layout.set_committed_head r.layout ~region:r.owner (head + 1);
      true
    end
end

let abort t ~txn_id =
  Array.iter (fun r -> Region.abort r ~txn_id) t.regions

let pending_committed t =
  Array.fold_left (fun n r -> n + Region.pending_committed r) 0 t.regions

let uncommitted_count t =
  Array.fold_left (fun n r -> n + Region.uncommitted_count r) 0 t.regions

let blocks_free t =
  Array.fold_left (fun n r -> n + Region.blocks_free r) 0 t.regions

(* Deterministic N-way merge: always drain the region whose oldest
   undrained commit carries the smallest global sequence number, so the
   merged stream reaching the Stable Log Tail is in commit order exactly
   as in the single-region layout. *)
let next_region_to_drain t =
  (* Index of the best region, or -1: int sentinels keep the per-batch
     merge loop (the PR 6 regression source) allocation-free. *)
  let best = ref (-1) and best_seq = ref 0 in
  for i = 0 to Array.length t.regions - 1 do
    let seq = Region.head_seq t.regions.(i) in
    if seq >= 0 && (!best < 0 || seq < !best_seq) then begin
      best := i;
      best_seq := seq
    end
  done;
  !best

let drain_one t ~f =
  match next_region_to_drain t with
  | -1 -> false
  | i -> Region.drain_one t.regions.(i) ~f

let drain t ~f =
  (* Draining can suspend on log-disk backpressure, during which the event
     loop may run another transaction's commit — whose own drain call must
     NOT process the ring concurrently (it would re-read the entry the
     outer drain is mid-way through and then skip one).  The outer drain's
     loop picks up anything committed meanwhile, so the inner call can
     simply do nothing. *)
  if t.draining then 0
  else begin
    t.draining <- true;
    Fun.protect
      ~finally:(fun () -> t.draining <- false)
      (fun () ->
        let n = ref 0 in
        while drain_one t ~f do
          incr n
        done;
        !n)
  end

let recover layout =
  let t = create layout in
  (* Only blocks reachable from undrained committed entries are live;
     uncommitted chains are garbage by definition.  Each region's block
     allocator is rebuilt from its own ring stripe. *)
  Array.iter
    (fun r ->
      let live = ref [] in
      let head = Stable_layout.committed_head layout ~region:r.owner in
      let tail = Stable_layout.committed_tail layout ~region:r.owner in
      for i = head to tail - 1 do
        let b = ref (Region.ring_first r i) in
        while !b >= 0 do
          live := !b :: !live;
          b := Region.get_next r !b
        done
      done;
      Mrdb_hw.Stable_mem.Blocks.rebuild_after_crash r.blocks ~live:!live)
    t.regions;
  t
