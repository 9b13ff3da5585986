(* Tests for the mrdb_util substrate: RNG, codecs, checksums, containers,
   statistics, table rendering. *)

open Mrdb_util

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* -- Rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.of_int 7 in
  let _ = Rng.next64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_split_differs () =
  let a = Rng.of_int 7 in
  let child = Rng.split a in
  let x = Rng.next64 a and y = Rng.next64 child in
  check bool_t "split stream differs from parent" true (x <> y)

let test_rng_int_bounds () =
  let r = Rng.of_int 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool_t "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let r = Rng.of_int 2 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    check bool_t "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check bool_t "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_positive () =
  let r = Rng.of_int 4 in
  for _ = 1 to 1000 do
    check bool_t "exponential >= 0" true (Rng.exponential r 10.0 >= 0.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.of_int 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 10.0
  done;
  let mean = !sum /. float_of_int n in
  check bool_t "mean near 10" true (mean > 9.0 && mean < 11.0)

let test_rng_zipf_bounds () =
  let r = Rng.of_int 6 in
  for _ = 1 to 1000 do
    let v = Rng.zipf r ~n:100 ~theta:0.9 in
    check bool_t "zipf in range" true (v >= 0 && v < 100)
  done

let test_rng_zipf_skew () =
  let r = Rng.of_int 7 in
  let lows = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.zipf r ~n:100 ~theta:1.0 < 10 then incr lows
  done;
  (* With skew, the lowest decile must get far more than 10 % of the mass. *)
  check bool_t "zipf skews low" true (!lows > n / 5)

let test_rng_zipf_uniform_when_zero () =
  let r = Rng.of_int 8 in
  let lows = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.zipf r ~n:100 ~theta:0.0 < 10 then incr lows
  done;
  check bool_t "theta=0 is uniform-ish" true (!lows > n / 20 && !lows < n / 5)

let test_rng_shuffle_permutation () =
  let r = Rng.of_int 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array int_t) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_bytes_length () =
  let r = Rng.of_int 10 in
  check int_t "bytes length" 33 (Bytes.length (Rng.bytes r 33))

(* -- Codec ----------------------------------------------------------------- *)

let test_codec_u8_roundtrip () =
  let enc = Codec.Enc.create () in
  List.iter (Codec.Enc.u8 enc) [ 0; 1; 127; 128; 255 ];
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  List.iter (fun v -> check int_t "u8" v (Codec.Dec.u8 dec)) [ 0; 1; 127; 128; 255 ]

let test_codec_u16_u32_roundtrip () =
  let enc = Codec.Enc.create () in
  Codec.Enc.u16 enc 0xBEEF;
  Codec.Enc.u32 enc 0xDEADBEEF;
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  check int_t "u16" 0xBEEF (Codec.Dec.u16 dec);
  check int_t "u32" 0xDEADBEEF (Codec.Dec.u32 dec)

let test_codec_out_of_range () =
  let enc = Codec.Enc.create () in
  Alcotest.check_raises "u8 256" (Invalid_argument "Codec.Enc.u8") (fun () ->
      Codec.Enc.u8 enc 256);
  Alcotest.check_raises "u16 -1" (Invalid_argument "Codec.put_u16") (fun () ->
      Codec.Enc.u16 enc (-1))

let test_codec_truncated () =
  let dec = Codec.Dec.of_bytes (Bytes.create 3) in
  ignore (Codec.Dec.u16 dec);
  Alcotest.check_raises "truncated"
    (Fatal.Invariant { mod_ = "Codec"; what = "Dec: truncated input" })
    (fun () -> ignore (Codec.Dec.u32 dec))

let test_codec_string_roundtrip () =
  let enc = Codec.Enc.create () in
  Codec.Enc.string enc "";
  Codec.Enc.string enc "hello world";
  Codec.Enc.string enc (String.make 1000 'x');
  let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
  check Alcotest.string "empty" "" (Codec.Dec.string dec);
  check Alcotest.string "short" "hello world" (Codec.Dec.string dec);
  check Alcotest.string "long" (String.make 1000 'x') (Codec.Dec.string dec);
  check bool_t "at end" true (Codec.Dec.at_end dec)

let test_codec_fixed_offset () =
  let b = Bytes.create 16 in
  Codec.put_u32 b 0 123456;
  Codec.put_i64 b 4 (-99L);
  Codec.put_u16 b 12 777;
  check int_t "u32" 123456 (Codec.get_u32 b 0);
  check Alcotest.int64 "i64" (-99L) (Codec.get_i64 b 4);
  check int_t "u16" 777 (Codec.get_u16 b 12)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun v ->
      let enc = Codec.Enc.create () in
      Codec.Enc.varint enc v;
      let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
      Codec.Dec.varint dec = v)

let prop_i64_roundtrip =
  QCheck.Test.make ~name:"i64 roundtrip" ~count:500 QCheck.int64 (fun v ->
      let enc = Codec.Enc.create () in
      Codec.Enc.i64 enc v;
      Codec.Dec.i64 (Codec.Dec.of_bytes (Codec.Enc.to_bytes enc)) = v)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 QCheck.string (fun s ->
      let enc = Codec.Enc.create () in
      Codec.Enc.string enc s;
      Codec.Dec.string (Codec.Dec.of_bytes (Codec.Enc.to_bytes enc)) = s)

let prop_mixed_sequence_roundtrip =
  QCheck.Test.make ~name:"mixed field sequence roundtrip" ~count:200
    QCheck.(small_list (pair (int_bound 0xFFFF) string))
    (fun fields ->
      let enc = Codec.Enc.create () in
      List.iter
        (fun (n, s) ->
          Codec.Enc.u16 enc n;
          Codec.Enc.string enc s)
        fields;
      let dec = Codec.Dec.of_bytes (Codec.Enc.to_bytes enc) in
      List.for_all
        (fun (n, s) -> Codec.Dec.u16 dec = n && Codec.Dec.string dec = s)
        fields)

(* -- Checksum --------------------------------------------------------------- *)

let test_crc32_known_vector () =
  (* CRC-32("123456789") = 0xCBF43926, the classic check value. *)
  let b = Bytes.of_string "123456789" in
  check Alcotest.int32 "crc32 check value" 0xCBF43926l (Checksum.crc32_bytes b)

let test_crc32_empty () =
  check Alcotest.int32 "crc32 of empty" 0l (Checksum.crc32_bytes Bytes.empty)

let test_crc32_detects_flip () =
  let b = Bytes.of_string "some page contents here" in
  let c1 = Checksum.crc32_bytes b in
  Bytes.set b 5 'X';
  check bool_t "changed" true (c1 <> Checksum.crc32_bytes b)

let prop_crc32_subrange_consistent =
  QCheck.Test.make ~name:"crc32 subrange = crc32 of sub-bytes" ~count:200
    QCheck.(string_of_size Gen.(int_range 1 64))
    (fun s ->
      let b = Bytes.of_string s in
      let padded = Bytes.cat (Bytes.of_string "##") (Bytes.cat b (Bytes.of_string "##")) in
      Checksum.crc32 padded ~pos:2 ~len:(Bytes.length b) = Checksum.crc32_bytes b)

(* The slicing-by-8 kernel against the byte-at-a-time oracle
   ({!Crc_reference}).  Half the cases have [len] 0-40, so tails shorter
   than 8 bytes meet starts at every offset 0-15; the rest run up to
   20 KB (two and a half log pages). *)
let crc_case =
  let open QCheck.Gen in
  let* len = frequency [ (1, int_range 0 40); (1, int_range 41 20_480) ] in
  let* pos = int_range 0 15 in
  let* slack = int_range 0 15 in
  let* buf = bytes_size ~gen:char (return (pos + len + slack)) in
  let* init = frequency [ (1, return 0l); (3, int32) ] in
  return (buf, pos, len, init)

let print_crc_case (buf, pos, len, init) =
  Printf.sprintf "buf=%d bytes pos=%d len=%d init=%ld" (Bytes.length buf) pos len init

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 = byte-at-a-time reference" ~count:10_000
    (QCheck.make ~print:print_crc_case crc_case)
    (fun (buf, pos, len, init) ->
      Checksum.crc32 ~init buf ~pos ~len = Crc_reference.crc32 ~init buf ~pos ~len)

let prop_crc32_chains =
  QCheck.Test.make ~name:"crc32 ~init:(crc32 a) b = crc32 (a ^ b)" ~count:1_000
    (QCheck.make ~print:print_crc_case crc_case)
    (fun (buf, pos, len, init) ->
      let cut = pos + (len / 3) in
      let head = Checksum.crc32 ~init buf ~pos ~len:(cut - pos) in
      let whole = Checksum.crc32 ~init buf ~pos ~len in
      Checksum.crc32 ~init:head buf ~pos:cut ~len:(pos + len - cut) = whole
      && whole = Crc_reference.crc32 ~init buf ~pos ~len)

let test_crc32_bounds () =
  let b = Bytes.create 16 in
  List.iter
    (fun (pos, len) ->
      match Checksum.crc32 b ~pos ~len with
      | _ -> Alcotest.failf "crc32 accepted pos=%d len=%d" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (10, 7); (17, 0) ]

(* -- Pqueue ----------------------------------------------------------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~priority:p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> fst (Pqueue.pop_exn q)) in
  check (Alcotest.list (Alcotest.float 0.0)) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q ~priority:1.0 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> snd (Pqueue.pop_exn q)) in
  check (Alcotest.list Alcotest.string) "insertion order on ties" [ "a"; "b"; "c" ] order

let test_pqueue_empty () =
  let q = Pqueue.create () in
  check bool_t "empty" true (Pqueue.is_empty q);
  check bool_t "pop none" true (Pqueue.pop q = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Pqueue.pop_exn: empty")
    (fun () -> ignore (Pqueue.pop_exn q))

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q ~priority:p ()) priorities;
      let drained = List.init (List.length priorities) (fun _ -> fst (Pqueue.pop_exn q)) in
      drained = List.sort Float.compare priorities)

let test_pqueue_to_list_nondestructive () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~priority:p p) [ 3.0; 1.0; 2.0 ];
  let l = Pqueue.to_list q in
  check int_t "still 3 elements" 3 (Pqueue.length q);
  check (Alcotest.list (Alcotest.float 0.0)) "sorted snapshot" [ 1.0; 2.0; 3.0 ]
    (List.map fst l)

(* -- Ring ------------------------------------------------------------------- *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 in
  Ring.push_exn r 1;
  Ring.push_exn r 2;
  Ring.push_exn r 3;
  check bool_t "full" true (Ring.is_full r);
  check bool_t "push fails when full" false (Ring.push r 4);
  check (Alcotest.option int_t) "pop 1" (Some 1) (Ring.pop r);
  Ring.push_exn r 4;
  check (Alcotest.list int_t) "wrap order" [ 2; 3; 4 ] (Ring.to_list r)

let test_ring_peek () =
  let r = Ring.create ~capacity:2 in
  check (Alcotest.option int_t) "peek empty" None (Ring.peek r);
  Ring.push_exn r 9;
  check (Alcotest.option int_t) "peek" (Some 9) (Ring.peek r);
  check int_t "peek does not consume" 1 (Ring.length r)

let test_ring_clear () =
  let r = Ring.create ~capacity:2 in
  Ring.push_exn r 1;
  Ring.clear r;
  check bool_t "empty after clear" true (Ring.is_empty r)

let prop_ring_behaves_like_queue =
  QCheck.Test.make ~name:"ring = bounded FIFO model" ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* Some n = push n, None = pop. *)
      let r = Ring.create ~capacity:5 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let accepted = Ring.push r v in
              let model_accepts = Queue.length model < 5 in
              if model_accepts then Queue.add v model;
              accepted = model_accepts
          | None -> Ring.pop r = Queue.take_opt model)
        ops)

(* -- Bitset ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check bool_t "initially clear" false (Bitset.mem b 50);
  Bitset.set b 50;
  check bool_t "set" true (Bitset.mem b 50);
  check int_t "cardinal" 1 (Bitset.cardinal b);
  Bitset.set b 50;
  check int_t "idempotent set" 1 (Bitset.cardinal b);
  Bitset.clear b 50;
  check bool_t "cleared" false (Bitset.mem b 50);
  check int_t "cardinal 0" 0 (Bitset.cardinal b)

let test_bitset_first_clear_wraps () =
  let b = Bitset.create 4 in
  Bitset.set b 2;
  Bitset.set b 3;
  check (Alcotest.option int_t) "wraps past end" (Some 0) (Bitset.first_clear_from b 2);
  Bitset.set b 0;
  Bitset.set b 1;
  check (Alcotest.option int_t) "full" None (Bitset.first_clear b)

let test_bitset_out_of_range () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "too big" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem b 8))

let prop_bitset_matches_set_model =
  QCheck.Test.make ~name:"bitset = int-set model" ~count:200
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let b = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.set b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem model i)
           (List.init 64 Fun.id))

(* -- Stats ------------------------------------------------------------------- *)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "p50" 0.0 (Stats.median s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total s);
  check int_t "count" 4 (Stats.count s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add_int s i
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.median s);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile s 99.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-9) "p0 clamps" 1.0 (Stats.percentile s 0.0)

let test_stats_percentile_interleaved_with_add () =
  let s = Stats.create () in
  Stats.add s 5.0;
  ignore (Stats.median s);
  Stats.add s 1.0;
  check (Alcotest.float 1e-9) "min after re-add" 1.0 (Stats.percentile s 1.0)

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "known stddev" 2.0 (Stats.stddev s)

let test_stats_clear () =
  let s = Stats.create () in
  Stats.add s 7.0;
  Stats.clear s;
  check int_t "count" 0 (Stats.count s);
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.mean s)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -5.0; 50.0 ];
  let counts = Stats.Histogram.bucket_counts h in
  check int_t "bucket 0 (incl underflow)" 2 counts.(0);
  check int_t "bucket 1" 2 counts.(1);
  check int_t "bucket 9 (incl overflow)" 2 counts.(9);
  check int_t "total" 6 (Stats.Histogram.count h)

(* -- Texttab ------------------------------------------------------------------ *)

let test_texttab_render () =
  let t = Texttab.create ~headers:[ "x"; "y" ] in
  Texttab.row t [ "1"; "hello" ];
  Texttab.row t [ "22"; "b" ];
  let s = Texttab.render t in
  check bool_t "contains header" true
    (String.length s > 0 && String.index_opt s 'x' <> None);
  check bool_t "contains row" true (String.index_opt s 'h' <> None)

let test_texttab_arity_mismatch () =
  let t = Texttab.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Texttab.row: arity mismatch")
    (fun () -> Texttab.row t [ "only one" ])

let test_texttab_series () =
  let s =
    Texttab.series ~title:"demo" ~x_label:"x" ~y_labels:[ "a"; "b" ]
      [ (1.0, [ 2.0; 3.0 ]); (2.0, [ 4.0; 5.0 ]) ]
  in
  check bool_t "has title" true (String.length s > 10)

(* -- suite --------------------------------------------------------------------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mrdb_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split differs" `Quick test_rng_split_differs;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf bounds" `Quick test_rng_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "zipf uniform at zero" `Quick test_rng_zipf_uniform_when_zero;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
        ] );
      ( "codec",
        [
          Alcotest.test_case "u8 roundtrip" `Quick test_codec_u8_roundtrip;
          Alcotest.test_case "u16/u32 roundtrip" `Quick test_codec_u16_u32_roundtrip;
          Alcotest.test_case "out of range" `Quick test_codec_out_of_range;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated;
          Alcotest.test_case "string roundtrip" `Quick test_codec_string_roundtrip;
          Alcotest.test_case "fixed offset accessors" `Quick test_codec_fixed_offset;
        ]
        @ qsuite
            [
              prop_varint_roundtrip;
              prop_i64_roundtrip;
              prop_string_roundtrip;
              prop_mixed_sequence_roundtrip;
            ] );
      ( "checksum",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
          Alcotest.test_case "crc32 empty" `Quick test_crc32_empty;
          Alcotest.test_case "crc32 detects bit flip" `Quick test_crc32_detects_flip;
          Alcotest.test_case "crc32 bounds" `Quick test_crc32_bounds;
        ]
        @ qsuite
            [
              prop_crc32_subrange_consistent;
              prop_crc32_matches_reference;
              prop_crc32_chains;
            ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty behaviour" `Quick test_pqueue_empty;
          Alcotest.test_case "to_list nondestructive" `Quick test_pqueue_to_list_nondestructive;
        ]
        @ qsuite [ prop_pqueue_sorts ] );
      ( "ring",
        [
          Alcotest.test_case "fifo + wrap" `Quick test_ring_fifo;
          Alcotest.test_case "peek" `Quick test_ring_peek;
          Alcotest.test_case "clear" `Quick test_ring_clear;
        ]
        @ qsuite [ prop_ring_behaves_like_queue ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "first_clear wraps" `Quick test_bitset_first_clear_wraps;
          Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
        ]
        @ qsuite [ prop_bitset_matches_set_model ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "percentile after re-add" `Quick
            test_stats_percentile_interleaved_with_add;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "clear" `Quick test_stats_clear;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "render" `Quick test_texttab_render;
          Alcotest.test_case "arity mismatch" `Quick test_texttab_arity_mismatch;
          Alcotest.test_case "series" `Quick test_texttab_series;
        ] );
    ]
