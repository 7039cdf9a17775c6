(* Tests for the bit-string key substrate. *)

open Bitkey

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* bit_length / bit / popcount *)

let test_bit_length () =
  check_int "0" 0 (bit_length 0);
  check_int "1" 1 (bit_length 1);
  check_int "2" 2 (bit_length 2);
  check_int "3" 2 (bit_length 3);
  check_int "4" 3 (bit_length 4);
  check_int "255" 8 (bit_length 255);
  check_int "256" 9 (bit_length 256);
  Alcotest.check_raises "negative" (Invalid_argument "Bitkey.bit_length: negative")
    (fun () -> ignore (bit_length (-1)))

let test_bit () =
  (* key 0b1010 over width 4: bits 1..4 are 1,0,1,0 *)
  check_int "b1" 1 (bit ~width:4 0b1010 1);
  check_int "b2" 0 (bit ~width:4 0b1010 2);
  check_int "b3" 1 (bit ~width:4 0b1010 3);
  check_int "b4" 0 (bit ~width:4 0b1010 4);
  Alcotest.check_raises "index 0" (Invalid_argument "Bitkey.bit: index out of range")
    (fun () -> ignore (bit ~width:4 0 0))

let test_popcount () =
  check_int "0" 0 (popcount 0);
  check_int "255" 8 (popcount 255);
  check_int "0b1010101" 4 (popcount 0b1010101);
  check_int "max_int" 62 (popcount max_int)

(* ------------------------------------------------------------------ *)
(* Labels *)

let lbl bits len : Label.t = Label.prefix (Label.of_key ~width:len bits) len

let test_label_of_key () =
  let l = Label.of_key ~width:8 0b10110001 in
  check_int "len" 8 (Label.length l);
  check_str "string" "10110001" (Label.to_string l);
  Alcotest.check_raises "width too big"
    (Invalid_argument "Label.of_key: width") (fun () ->
      ignore (Label.of_key ~width:63 0))

let test_label_prefix () =
  let l = Label.of_key ~width:8 0b10110001 in
  check_str "3-prefix" "101" (Label.to_string (Label.prefix l 3));
  check_str "0-prefix" "" (Label.to_string (Label.prefix l 0));
  check "is_prefix refl" true (Label.is_prefix l l);
  check "proper not refl" false (Label.is_proper_prefix l l);
  check "shorter prefix" true (Label.is_prefix (Label.prefix l 3) l);
  check "proper" true (Label.is_proper_prefix (Label.prefix l 3) l);
  check "non-prefix" false
    (Label.is_prefix (lbl 0b111 3) l)

let test_label_empty () =
  check_int "empty len" 0 (Label.length Label.empty);
  check "empty prefixes all" true
    (Label.is_prefix Label.empty (Label.of_key ~width:8 77))

let test_next_bit () =
  let key = 0b10110001 in
  let l = Label.of_key ~width:8 key in
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "bit after %d-prefix" i)
      (bit ~width:8 key (i + 1))
      (Label.next_bit_of_key ~width:8 (Label.prefix l i) key)
  done

let test_lcp () =
  let a = Label.of_key ~width:8 0b10110001 and b = Label.of_key ~width:8 0b10111101 in
  check_str "lcp" "1011" (Label.to_string (Label.lcp a b));
  check_str "lcp refl" "10110001" (Label.to_string (Label.lcp a a));
  let c = Label.of_key ~width:8 0b00000000 in
  check_str "lcp disjoint" "" (Label.to_string (Label.lcp a c))

let test_extend () =
  let l = Label.empty in
  let l = Label.extend l 1 in
  let l = Label.extend l 0 in
  check_str "extend" "10" (Label.to_string l);
  Alcotest.check_raises "bad bit" (Invalid_argument "Label.extend: bit") (fun () ->
      ignore (Label.extend l 2))

let test_compare_total () =
  let l1 = lbl 0b1 1 and l2 = lbl 0b10 2 and l3 = lbl 0b11 2 in
  check "shorter first" true (Label.compare l1 l2 < 0);
  check "same len by bits" true (Label.compare l2 l3 < 0);
  check_int "equal" 0 (Label.compare l2 l2)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_key width = QCheck2.Gen.(int_bound ((1 lsl width) - 1))

let prop_lcp_is_prefix =
  Tutil.qtest "lcp is a prefix of both"
    QCheck2.Gen.(pair (gen_key 16) (gen_key 16))
    (fun (a, b) ->
      let la = Label.of_key ~width:16 a and lb = Label.of_key ~width:16 b in
      let l = Label.lcp la lb in
      Label.is_prefix l la && Label.is_prefix l lb)

let prop_lcp_maximal =
  Tutil.qtest "lcp is maximal"
    QCheck2.Gen.(pair (gen_key 16) (gen_key 16))
    (fun (a, b) ->
      let la = Label.of_key ~width:16 a and lb = Label.of_key ~width:16 b in
      let l = Label.lcp la lb in
      a = b
      || Label.length l = 16
      || Label.next_bit l la <> Label.next_bit l lb)

let prop_prefix_transitive =
  Tutil.qtest "prefix relation is transitive via truncation"
    QCheck2.Gen.(triple (gen_key 16) (int_bound 16) (int_bound 16))
    (fun (a, i, j) ->
      let la = Label.of_key ~width:16 a in
      let i, j = (min i j, max i j) in
      Label.is_prefix (Label.prefix la i) (Label.prefix la j))

let prop_interleave_roundtrip =
  Tutil.qtest "interleave2/deinterleave2 round-trip"
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (x, y) ->
      let key = interleave2 ~coord_bits:16 x y in
      deinterleave2 ~coord_bits:16 key = (x, y))

let prop_interleave_monotone_box =
  Tutil.qtest "interleaved keys of a quadrant share a prefix"
    QCheck2.Gen.(pair (int_bound 0x7FFF) (int_bound 0x7FFF))
    (fun (x, y) ->
      (* Points in the same half-plane agree on the first interleaved bit. *)
      let k1 = interleave2 ~coord_bits:16 x y in
      let k2 = interleave2 ~coord_bits:16 (x lor 0x8000) y in
      bit ~width:32 k1 1 = 0 && bit ~width:32 k2 1 = 1)

let prop_string_roundtrip =
  Tutil.qtest "encode_string/decode_string round-trip"
    QCheck2.Gen.(string_size ~gen:(map (fun b -> if b then '1' else '0') bool)
                   (int_bound 12))
    (fun s ->
      decode_string ~max_len:12 (encode_string ~max_len:12 s) = s)

let prop_string_injective =
  Tutil.qtest "string encoding is injective"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (int_bound 10))
        (string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (int_bound 10)))
    (fun (s1, s2) ->
      s1 = s2 || encode_string ~max_len:10 s1 <> encode_string ~max_len:10 s2)

let test_string_sentinel_bounds () =
  (* Every encoded key lies strictly between the sentinels (Section VI). *)
  let width = string_width ~max_len:4 in
  let top = (1 lsl width) - 1 in
  List.iter
    (fun s ->
      let k = encode_string ~max_len:4 s in
      if not (k > 0 && k < top) then
        Alcotest.failf "encoded %S = %d escapes (0, %d)" s k top)
    [ ""; "0"; "1"; "0000"; "1111"; "0101"; "1010" ]

(* ------------------------------------------------------------------ *)
(* Packed labels agree with Label on every operation *)

(* One label pair's worth of agreement checks at [width]. *)
let packed_agrees ~width (a : Label.t) (b : Label.t) =
  let pa = Packed.of_label ~width a and pb = Packed.of_label ~width b in
  let lbl = Alcotest.testable Label.pp Label.equal in
  let ctx = Printf.sprintf "w%d %s/%s" width (Label.to_string a) (Label.to_string b) in
  Alcotest.check lbl (ctx ^ " round trip") a (Packed.to_label ~width pa);
  check_int (ctx ^ " length") a.len (Packed.length ~width pa);
  check (ctx ^ " is_prefix") (Label.is_prefix a b) (Packed.is_prefix pa pb);
  Alcotest.check lbl (ctx ^ " lcp") (Label.lcp a b)
    (Packed.to_label ~width (Packed.lcp pa pb));
  check (ctx ^ " compare") (Label.equal a b) (Packed.compare pa pb = 0);
  if Label.is_proper_prefix a b then
    check_int (ctx ^ " next_bit") (Label.next_bit a b) (Packed.next_bit pa pb);
  if a.len < width then
    List.iter
      (fun bit ->
        Alcotest.check lbl (ctx ^ " extend")
          (Label.extend a bit)
          (Packed.to_label ~width (Packed.extend pa bit)))
      [ 0; 1 ]

let key_agrees ~width (a : Label.t) k =
  let pa = Packed.of_label ~width a in
  let ctx = Printf.sprintf "w%d %s/%d" width (Label.to_string a) k in
  check_int (ctx ^ " of_key") (Packed.of_label ~width (Label.of_key ~width k))
    (Packed.of_key k);
  let under = Label.is_prefix_of_key ~width a k in
  check (ctx ^ " is_prefix_of_key") under (Packed.is_prefix_of_key pa k);
  check (ctx ^ " lo/hi") under (Packed.lo pa <= k && k <= Packed.hi pa);
  if a.len < width then
    check_int (ctx ^ " next_bit_of_key")
      (Label.next_bit_of_key ~width a k)
      (Packed.next_bit_of_key pa k)

let all_labels width =
  List.concat_map
    (fun len -> List.init (1 lsl len) (fun bits -> { Label.bits; len }))
    (List.init (width + 1) Fun.id)

let test_packed_exhaustive () =
  for width = 1 to 5 do
    let ls = all_labels width in
    List.iter (fun a -> List.iter (fun b -> packed_agrees ~width a b) ls) ls;
    List.iter
      (fun a -> for k = 0 to (1 lsl width) - 1 do key_agrees ~width a k done)
      ls
  done

let test_packed_width62 () =
  (* The widest keys use the sign bit of a packed label: pairs sharing
     long prefixes, the extreme keys and the empty label. *)
  let width = 62 in
  let rs = Random.State.make [| 62 |] in
  let key () =
    ((Random.State.bits rs lsl 32) lxor (Random.State.bits rs lsl 16)
    lxor Random.State.bits rs)
    land ((1 lsl width) - 1)
  in
  let extremes = [ 0; 1; 1 lsl 61; (1 lsl 62) - 2; (1 lsl 62) - 1 ] in
  let label k len = Label.prefix (Label.of_key ~width k) len in
  for _ = 1 to 2000 do
    let k = key () in
    let k' = k lxor (1 lsl Random.State.int rs width) in
    let a = label k (Random.State.int rs (width + 1))
    and b = label k' (Random.State.int rs (width + 1)) in
    packed_agrees ~width a b;
    packed_agrees ~width b a;
    packed_agrees ~width Label.empty a;
    List.iter (key_agrees ~width a) (k :: k' :: extremes);
    List.iter (key_agrees ~width Label.empty) (k :: extremes)
  done;
  List.iter
    (fun k ->
      List.iter
        (fun k' -> packed_agrees ~width (label k width) (label k' width))
        extremes)
    extremes

let () =
  Alcotest.run "bitkey"
    [
      ( "bits",
        [
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "bit" `Quick test_bit;
          Alcotest.test_case "popcount" `Quick test_popcount;
        ] );
      ( "labels",
        [
          Alcotest.test_case "of_key" `Quick test_label_of_key;
          Alcotest.test_case "prefix" `Quick test_label_prefix;
          Alcotest.test_case "empty" `Quick test_label_empty;
          Alcotest.test_case "next_bit" `Quick test_next_bit;
          Alcotest.test_case "lcp" `Quick test_lcp;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "compare total order" `Quick test_compare_total;
        ] );
      ( "packed",
        [
          Alcotest.test_case "agree with Label, widths 1-5" `Quick
            test_packed_exhaustive;
          Alcotest.test_case "agree with Label, width 62" `Quick
            test_packed_width62;
        ] );
      ( "properties",
        [
          prop_lcp_is_prefix;
          prop_lcp_maximal;
          prop_prefix_transitive;
          prop_interleave_roundtrip;
          prop_interleave_monotone_box;
          prop_string_roundtrip;
          prop_string_injective;
          Alcotest.test_case "string sentinel bounds" `Quick
            test_string_sentinel_bounds;
        ] );
    ]
