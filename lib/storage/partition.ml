let magic = 0x4D525041 (* "MRPA" *)
let header_bytes = 24
let slot_entry_bytes = 8

(* Header layout (little-endian u32 fields):
   0 magic | 4 segment | 8 partition | 12 nslots | 16 data_tail | 20 live *)
let off_magic = 0
let off_segment = 4
let off_partition = 8
let off_nslots = 12
let off_data_tail = 16
let off_live = 20

module Fatal = Mrdb_util.Fatal

exception No_space of { partition : Addr.partition; needed : int }

type t = { buf : bytes }

let size t = Bytes.length t.buf

let get t off = Mrdb_util.Codec.get_u32 t.buf off
let put t off v = Mrdb_util.Codec.put_u32 t.buf off v

let segment_id t = get t off_segment
let partition_id t = get t off_partition
let slot_count t = get t off_nslots
let data_tail t = get t off_data_tail
let live_entities t = get t off_live

let address t : Addr.partition =
  { Addr.segment = segment_id t; partition = partition_id t }

let dir_end t = header_bytes + (slot_count t * slot_entry_bytes)

let slot_off t slot = get t (header_bytes + (slot * slot_entry_bytes))
let slot_len t slot = get t (header_bytes + (slot * slot_entry_bytes) + 4)

let set_slot t slot ~off ~len =
  put t (header_bytes + (slot * slot_entry_bytes)) off;
  put t (header_bytes + (slot * slot_entry_bytes) + 4) len

let create ~size ~segment ~partition =
  if size < 256 then Mrdb_util.Fatal.misuse "Partition.create: size < 256";
  if segment < 0 || partition < 0 then Mrdb_util.Fatal.misuse "Partition.create: ids";
  let t = { buf = Bytes.make size '\000' } in
  put t off_magic magic;
  put t off_segment segment;
  put t off_partition partition;
  put t off_nslots 0;
  put t off_data_tail size;
  put t off_live 0;
  t

let is_live t ~slot =
  slot >= 0 && slot < slot_count t && slot_off t slot <> 0

let read t ~slot =
  if is_live t ~slot then
    Some (Bytes.sub t.buf (slot_off t slot) (slot_len t slot))
  else None

let read_with t ~slot ~alloc =
  if is_live t ~slot then begin
    let len = slot_len t slot in
    let b = alloc len in
    Bytes.blit t.buf (slot_off t slot) b 0 len;
    Some b
  end
  else None

let read_exn t ~slot =
  match read t ~slot with
  | Some b -> b
  | None -> Fatal.invariantf ~mod_:"Partition" "read_exn: slot %d not live" slot

let iter f t =
  for slot = 0 to slot_count t - 1 do
    if slot_off t slot <> 0 then
      f slot (Bytes.sub t.buf (slot_off t slot) (slot_len t slot))
  done

let fold f init t =
  let acc = ref init in
  iter (fun slot b -> acc := f !acc slot b) t;
  !acc

let used_data t =
  let total = ref 0 in
  for slot = 0 to slot_count t - 1 do
    if slot_off t slot <> 0 then total := !total + slot_len t slot
  done;
  !total

let contiguous_free t = data_tail t - dir_end t

let free_space t = size t - dir_end t - used_data t

let compact t =
  (* Slide live entities to the high end of the buffer, highest original
     offset first so moves never overlap destructively. *)
  let live = ref [] in
  for slot = 0 to slot_count t - 1 do
    if slot_off t slot <> 0 then
      live := (slot, slot_off t slot, slot_len t slot) :: !live
  done;
  let by_offset_desc = List.sort (fun (_, a, _) (_, b, _) -> Int.compare b a) !live in
  let tail = ref (size t) in
  List.iter
    (fun (slot, off, len) ->
      tail := !tail - len;
      if off <> !tail then Bytes.blit t.buf off t.buf !tail len;
      set_slot t slot ~off:!tail ~len)
    by_offset_desc;
  put t off_data_tail !tail

let find_free_slot t =
  let n = slot_count t in
  let rec scan slot = if slot >= n then None else if slot_off t slot = 0 then Some slot else scan (slot + 1) in
  scan 0

(* Ensure [len] contiguous heap bytes are available assuming the directory
   will contain [nslots_after] entries; compacts when fragmentation is the
   only obstacle.  Returns false when the partition genuinely lacks room. *)
let ensure_room t ~nslots_after ~len =
  let dir_end_after = header_bytes + (nslots_after * slot_entry_bytes) in
  if data_tail t - dir_end_after >= len then true
  else if size t - dir_end_after - used_data t >= len then begin
    compact t;
    data_tail t - dir_end_after >= len
  end
  else false

let alloc_data t len =
  let tail = data_tail t - len in
  put t off_data_tail tail;
  tail

let write_entity t slot b =
  let len = Bytes.length b in
  let off = alloc_data t len in
  Bytes.blit b 0 t.buf off len;
  set_slot t slot ~off ~len

let insert t b =
  let len = Bytes.length b in
  if len = 0 then Mrdb_util.Fatal.misuse "Partition.insert: empty entity";
  match find_free_slot t with
  | Some slot ->
      if ensure_room t ~nslots_after:(slot_count t) ~len then begin
        write_entity t slot b;
        put t off_live (live_entities t + 1);
        Some slot
      end
      else None
  | None ->
      let slot = slot_count t in
      if ensure_room t ~nslots_after:(slot + 1) ~len then begin
        put t off_nslots (slot + 1);
        set_slot t slot ~off:0 ~len:0;
        write_entity t slot b;
        put t off_live (live_entities t + 1);
        Some slot
      end
      else None

let insert_at t ~slot b =
  let len = Bytes.length b in
  if len = 0 then Mrdb_util.Fatal.misuse "Partition.insert_at: empty entity";
  if slot < 0 then Mrdb_util.Fatal.misuse "Partition.insert_at: negative slot";
  if is_live t ~slot then
    Fatal.invariantf ~mod_:"Partition" "insert_at: slot %d occupied" slot;
  let nslots_after = Stdlib.max (slot_count t) (slot + 1) in
  if not (ensure_room t ~nslots_after ~len) then
    raise (No_space { partition = address t; needed = len });
  if slot >= slot_count t then begin
    (* Extend the directory, initializing any intervening slots as free. *)
    for s = slot_count t to slot do
      put t off_nslots (s + 1);
      set_slot t s ~off:0 ~len:0
    done
  end;
  write_entity t slot b;
  put t off_live (live_entities t + 1)

let delete_at t ~slot =
  if not (is_live t ~slot) then
    Fatal.invariantf ~mod_:"Partition" "delete_at: slot %d not live" slot;
  set_slot t slot ~off:0 ~len:0;
  put t off_live (live_entities t - 1)

let update_at t ~slot b =
  if not (is_live t ~slot) then
    Fatal.invariantf ~mod_:"Partition" "update_at: slot %d not live" slot;
  let len = Bytes.length b in
  if len = 0 then Mrdb_util.Fatal.misuse "Partition.update_at: empty entity";
  let old_len = slot_len t slot in
  if len <= old_len then begin
    (* Overwrite in place; the tail of the old allocation becomes heap
       garbage until the next compaction. *)
    Bytes.blit b 0 t.buf (slot_off t slot) len;
    set_slot t slot ~off:(slot_off t slot) ~len
  end
  else begin
    (* Check feasibility counting the old allocation as reclaimable before
       freeing the slot, so a failed update leaves the entity intact. *)
    let free_after = size t - dir_end t - (used_data t - old_len) in
    if free_after < len then raise (No_space { partition = address t; needed = len });
    set_slot t slot ~off:0 ~len:0;
    if not (ensure_room t ~nslots_after:(slot_count t) ~len) then
      (* Feasibility was just established. *)
      Fatal.invariant ~mod_:"Partition" "update_at: compaction failed to make room";
    write_entity t slot b
  end

let snapshot t = Bytes.copy t.buf
let unsafe_raw t = t.buf

let of_snapshot ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if len < header_bytes then
    Fatal.invariant ~mod_:"Partition" "of_snapshot: too small";
  let t = { buf = Bytes.sub b pos len } in
  if get t off_magic <> magic then
    Fatal.invariant ~mod_:"Partition" "of_snapshot: bad magic";
  let n = slot_count t in
  if dir_end t > size t || data_tail t > size t || data_tail t < dir_end t then
    Fatal.invariant ~mod_:"Partition" "of_snapshot: corrupt header";
  let live = ref 0 in
  for slot = 0 to n - 1 do
    let off = slot_off t slot in
    if off <> 0 then begin
      incr live;
      if off < dir_end t || off + slot_len t slot > size t then
        Fatal.invariant ~mod_:"Partition" "of_snapshot: corrupt slot"
    end
  done;
  if !live <> live_entities t then
    Fatal.invariant ~mod_:"Partition" "of_snapshot: live count mismatch";
  t

let equal_contents a b =
  let entities t =
    fold (fun acc slot bytes -> (slot, Bytes.to_string bytes) :: acc) [] t
  in
  segment_id a = segment_id b
  && partition_id a = partition_id b
  && List.sort compare (entities a) = List.sort compare (entities b)

let pp ppf t =
  Format.fprintf ppf "partition %a: %d live / %d slots, %d free bytes"
    Addr.pp_partition (address t) (live_entities t) (slot_count t) (free_space t)
