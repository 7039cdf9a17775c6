(* Structure-forensics tests: the Obs.Shape census against tries of
   known shape, descent-depth accounting bounds, and the registry's
   uniform census/descent capability (with its explicit "unsupported"
   marker). *)

module P = Core.Patricia
module V = Core.Patricia_vlk

let bits_for universe =
  (* PAT's key width: l = ceil(log2 (universe + 2)), as documented on
     [Patricia.create]. *)
  let rec go b = if 1 lsl b >= universe + 2 then b else go (b + 1) in
  go 1

(* ------------------------------------------------------------------ *)
(* Obs.Shape distribution exactness on hand-fed observations *)

let test_dist_exact () =
  let a = Obs.Shape.acc ~structure:"X" in
  (* Ten single-key leaves at depths 1..10 and one sentinel that must
     stay out of every key statistic. *)
  for d = 1 to 10 do
    Obs.Shape.leaf a ~depth:d ~keys:1 ~sentinel:false ~words:5
  done;
  Obs.Shape.leaf a ~depth:12 ~keys:0 ~sentinel:true ~words:5;
  Obs.Shape.internal a ~depth:0 ~prefix_len:3 ~children:2 ~words:7;
  let c = Obs.Shape.finish a in
  Alcotest.(check int) "keys" 10 c.Dset_intf.keys;
  Alcotest.(check int) "sentinels" 1 c.Dset_intf.sentinels;
  Alcotest.(check int) "leaves" 11 c.Dset_intf.leaves;
  Alcotest.(check int) "internals" 1 c.Dset_intf.internals;
  Alcotest.(check int) "depth count" 10 c.Dset_intf.leaf_depth.Dset_intf.d_count;
  Alcotest.(check int) "depth min" 1 c.Dset_intf.leaf_depth.Dset_intf.d_min;
  Alcotest.(check int) "depth max" 10 c.Dset_intf.leaf_depth.Dset_intf.d_max;
  (* Exact percentile: smallest v with cumulative >= ceil(p * n). *)
  Alcotest.(check int) "depth p50" 5 c.Dset_intf.leaf_depth.Dset_intf.d_p50;
  Alcotest.(check int) "depth p90" 9 c.Dset_intf.leaf_depth.Dset_intf.d_p90;
  Alcotest.(check int) "depth p99" 10 c.Dset_intf.leaf_depth.Dset_intf.d_p99;
  Alcotest.(check (float 1e-9))
    "depth mean" 5.5 c.Dset_intf.leaf_depth.Dset_intf.d_mean;
  (* max_depth covers every node, sentinels included. *)
  Alcotest.(check int) "max depth" 12 c.Dset_intf.max_depth;
  Alcotest.(check int) "est words" ((11 * 5) + 7) c.Dset_intf.est_words;
  (* No measured words supplied: bytes/key falls back to the estimate. *)
  Alcotest.(check (float 1e-9))
    "bytes per key"
    (float_of_int (((11 * 5) + 7) * (Sys.word_size / 8)) /. 10.)
    c.Dset_intf.bytes_per_key;
  (* The histogram view agrees with the counts that built it. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 in
  Alcotest.(check int)
    "leaf_depth_hist total" 10
    (total c.Dset_intf.leaf_depth_hist)

(* ------------------------------------------------------------------ *)
(* PAT census on tries of known shape *)

let test_pat_census_empty () =
  let t = P.create ~universe:1024 () in
  match P.census t with
  | None -> Alcotest.fail "PAT census must be supported"
  | Some c ->
      Alcotest.(check int) "keys" 0 c.Dset_intf.keys;
      Alcotest.(check int) "sentinels" 2 c.Dset_intf.sentinels;
      Alcotest.(check int) "leaves" 2 c.Dset_intf.leaves;
      Alcotest.(check int) "internals" 1 c.Dset_intf.internals;
      Alcotest.(check int) "max depth" 1 c.Dset_intf.max_depth;
      (* One internal node of 14 words and two leaves of 7: PAT's
         labels and keys are immediates and a node is one block. *)
      Alcotest.(check int) "est words" ((1 * 14) + (2 * 7)) c.Dset_intf.est_words;
      Alcotest.(check int)
        "measured words" ((1 * 14) + (2 * 7))
        c.Dset_intf.measured_words

let test_pat_census_three_keys () =
  let t = P.create ~universe:1024 () in
  List.iter (fun k -> assert (P.insert t k)) [ 3; 500; 1000 ];
  assert (P.delete t 500 && P.insert t 700);
  match P.census t with
  | None -> Alcotest.fail "PAT census must be supported"
  | Some c ->
      Alcotest.(check int) "keys" 3 c.Dset_intf.keys;
      Alcotest.(check int) "leaves" 5 c.Dset_intf.leaves;
      Alcotest.(check int) "internals" 4 c.Dset_intf.internals;
      Alcotest.(check int) "est words" ((4 * 14) + (5 * 7)) c.Dset_intf.est_words;
      Alcotest.(check int)
        "measured words" ((4 * 14) + (5 * 7))
        c.Dset_intf.measured_words

let test_pat_census_populated () =
  let universe = 4096 in
  let t = P.create ~universe () in
  let rng = Rng.of_int_seed 42 in
  let inserted = ref 0 in
  for _ = 1 to 1000 do
    if P.insert t (Rng.int rng universe) then incr inserted
  done;
  match P.census t with
  | None -> Alcotest.fail "PAT census must be supported"
  | Some c ->
      Alcotest.(check int) "keys = size" (P.size t) c.Dset_intf.keys;
      Alcotest.(check int) "keys = inserted" !inserted c.Dset_intf.keys;
      Alcotest.(check int) "sentinels" 2 c.Dset_intf.sentinels;
      (* A leaf-oriented binary trie: every internal has exactly two
         children, so internals = leaves - 1. *)
      Alcotest.(check int)
        "internals = leaves - 1" (c.Dset_intf.leaves - 1)
        c.Dset_intf.internals;
      Alcotest.(check
                  (float (0.01 *. c.Dset_intf.branching.Dset_intf.d_mean)))
        "branching = 2" 2.0 c.Dset_intf.branching.Dset_intf.d_mean;
      (* Leaf depth is bounded by the key width: each internal consumes
         at least one key bit. *)
      let l = bits_for universe in
      Alcotest.(check bool)
        (Printf.sprintf "max depth %d <= width %d" c.Dset_intf.max_depth l)
        true
        (c.Dset_intf.max_depth <= l);
      (* Layout accounting vs Obj.reachable_words: in quiescence every
         reachable block is a node's own, so the estimate is exact. *)
      Alcotest.(check int)
        "estimate = measured" c.Dset_intf.measured_words c.Dset_intf.est_words;
      Alcotest.(check bool) "bytes/key > 0" true (c.Dset_intf.bytes_per_key > 0.)

let test_vlk_census () =
  let t = V.create () in
  for k = 0 to 99 do
    ignore (V.insert t (Printf.sprintf "%08x" k))
  done;
  ignore (V.delete t (Printf.sprintf "%08x" 7));
  match V.census t with
  | None -> Alcotest.fail "PAT-VLK census must be supported"
  | Some c ->
      Alcotest.(check int) "keys = size" (V.size t) c.Dset_intf.keys;
      Alcotest.(check int) "keys" 99 c.Dset_intf.keys;
      Alcotest.(check int) "sentinels" 2 c.Dset_intf.sentinels;
      Alcotest.(check int)
        "internals = leaves - 1" (c.Dset_intf.leaves - 1)
        c.Dset_intf.internals

let test_kary_census () =
  let universe = 4096 in
  let t = Kary.create ~universe () in
  let rng = Rng.of_int_seed 7 in
  for _ = 1 to 1000 do
    ignore (Kary.insert t (Rng.int rng universe))
  done;
  (* Deletes too, so pruned subtrees and their descriptors are retired. *)
  for _ = 1 to 500 do
    ignore (Kary.delete t (Rng.int rng universe))
  done;
  match Kary.census t with
  | None -> Alcotest.fail "4-ST census must be supported"
  | Some c ->
      Alcotest.(check int) "keys = size" (Kary.size t) c.Dset_intf.keys;
      Alcotest.(check int) "no sentinels" 0 c.Dset_intf.sentinels;
      (* In quiescence nothing retired stays reachable: unflagged update
         records hold no descriptor, so the estimate is exact. *)
      Alcotest.(check int)
        "estimate = measured" c.Dset_intf.measured_words c.Dset_intf.est_words;
      (* Leaves hold at most k-1 keys; internals have exactly k children. *)
      Alcotest.(check bool)
        "keys/leaf <= k-1" true
        (c.Dset_intf.keys_per_leaf.Dset_intf.d_max <= Kary.k - 1);
      Alcotest.(check int)
        "branching min" Kary.k c.Dset_intf.branching.Dset_intf.d_min;
      Alcotest.(check int)
        "branching max" Kary.k c.Dset_intf.branching.Dset_intf.d_max

(* ------------------------------------------------------------------ *)
(* Descent-cost accounting *)

let test_pat_descent () =
  let universe = 65_536 in
  let t = P.create ~universe ~record_stats:true () in
  let rng = Rng.of_int_seed 11 in
  for _ = 1 to 2000 do
    ignore (P.insert t (Rng.int rng universe))
  done;
  for _ = 1 to 2000 do
    ignore (P.member t (Rng.int rng universe))
  done;
  ignore (P.delete t 1);
  ignore (P.replace t ~remove:2 ~add:3);
  (match P.descent_stats t with
  | None -> Alcotest.fail "descent_stats must be Some with record_stats"
  | Some alist ->
      let get k = Option.value ~default:0 (List.assoc_opt k alist) in
      Alcotest.(check bool) "find nodes > 0" true (get "descent_nodes_find" > 0);
      Alcotest.(check bool)
        "insert nodes > 0" true
        (get "descent_nodes_insert" > 0);
      Alcotest.(check bool) "searches > 0" true (get "descent_searches" > 0);
      (* Mean depth derived the way the harness does it. *)
      (match Harness.descent_mean alist with
      | None -> Alcotest.fail "descent_mean must derive from the alist"
      | Some m ->
          let l = float_of_int (bits_for universe) in
          Alcotest.(check bool)
            (Printf.sprintf "1 <= mean %.2f <= width %.0f" m l)
            true
            (1.0 <= m && m <= l)));
  match P.descent_summary t with
  | None -> Alcotest.fail "descent_summary must be Some with record_stats"
  | Some s ->
      let l = bits_for universe in
      Alcotest.(check bool) "hist count > 0" true (s.Obs.Histogram.count > 0);
      Alcotest.(check bool)
        (Printf.sprintf "depth min %d >= 1" s.Obs.Histogram.min)
        true
        (s.Obs.Histogram.min >= 1);
      (* The histogram is log-bucketed: the reported max is a bucket
         upper bound, within one 1/32 sub-bucket of the true width. *)
      Alcotest.(check bool)
        (Printf.sprintf "depth max %d <= width %d (+slack)" s.Obs.Histogram.max
           l)
        true
        (s.Obs.Histogram.max <= l + ((l / 32) + 1))

let test_descent_disabled_and_monotone () =
  let t = P.create ~universe:1024 () in
  Alcotest.(check bool) "no stats -> None" true (P.descent_stats t = None);
  Alcotest.(check bool) "no stats -> None" true (P.descent_summary t = None);
  let t = P.create ~universe:1024 ~record_stats:true () in
  ignore (P.insert t 1);
  let s0 = Option.get (P.descent_stats t) in
  ignore (P.member t 1);
  ignore (P.member t 2);
  let s1 = Option.get (P.descent_stats t) in
  List.iter
    (fun (k, v1) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k s0) in
      Alcotest.(check bool) (k ^ " monotone") true (v1 >= v0))
    s1

let test_kary_descent () =
  let universe = 4096 in
  let t = Kary.create ~universe ~record_stats:true () in
  let rng = Rng.of_int_seed 3 in
  for _ = 1 to 500 do
    ignore (Kary.insert t (Rng.int rng universe))
  done;
  for _ = 1 to 500 do
    ignore (Kary.member t (Rng.int rng universe))
  done;
  match Kary.descent_stats t with
  | None -> Alcotest.fail "4-ST descent_stats must be Some with record_stats"
  | Some alist ->
      (match Harness.descent_mean alist with
      | None -> Alcotest.fail "descent_mean must derive"
      | Some m ->
          (* A 4-ary tree over 2^12 keys: descents are strictly shallower
             than the binary key width. *)
          Alcotest.(check bool)
            (Printf.sprintf "mean %.2f within (0, 12]" m)
            true
            (0.0 < m && m <= 12.0));
      Alcotest.(check bool)
        "no replace key" true
        (List.assoc_opt "descent_nodes_replace" alist = None)

(* ------------------------------------------------------------------ *)
(* Registry capability: supported structures answer, baselines carry
   the explicit unsupported marker *)

let test_registry_capability () =
  List.iter
    (fun (Dset_intf.Packed (module S)) ->
      let t = S.create ~universe:256 () in
      for k = 0 to 99 do
        ignore (S.insert t k)
      done;
      match S.census t with
      | Some c ->
          Alcotest.(check string) "census names itself" S.name
            c.Dset_intf.structure;
          Alcotest.(check int) "census keys = size" (S.size t) c.Dset_intf.keys
      | None ->
          (* The explicit unsupported marker: allowed only for the
             uninstrumented baselines, never for PAT or 4-ST. *)
          Alcotest.(check bool)
            (S.name ^ " may be unsupported")
            true
            (not (List.mem S.name [ "PAT"; "4-ST" ])))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Prometheus rendering *)

let test_shape_emit () =
  let t = P.create ~universe:1024 () in
  for k = 1 to 50 do
    ignore (P.insert t k)
  done;
  let c = Option.get (P.census t) in
  let b = Obs.Prometheus.create () in
  Obs.Shape.emit b c;
  let body = Obs.Prometheus.to_string b in
  let samples, errs = Obs.Prometheus.parse_samples body in
  Alcotest.(check int) "no parse errors" 0 (List.length errs);
  let find name labels =
    Obs.Prometheus.find_sample samples ~name ~labels
  in
  Alcotest.(check (option (float 0.)))
    "pat_shape_keys" (Some 50.)
    (find "pat_shape_keys" [ ("structure", "PAT") ]);
  Alcotest.(check (option (float 0.)))
    "pat_shape_nodes sentinel" (Some 2.)
    (find "pat_shape_nodes" [ ("structure", "PAT"); ("kind", "sentinel") ]);
  Alcotest.(check bool)
    "pat_shape_bytes_per_key present" true
    (find "pat_shape_bytes_per_key" [ ("structure", "PAT") ] <> None);
  Alcotest.(check bool)
    "pat_shape_leaf_depth p99 present" true
    (find "pat_shape_leaf_depth" [ ("structure", "PAT"); ("stat", "p99") ]
    <> None)

let () =
  Alcotest.run "shape"
    [
      ( "shape",
        [
          Alcotest.test_case "dist exactness" `Quick test_dist_exact;
          Alcotest.test_case "PAT census empty" `Quick test_pat_census_empty;
          Alcotest.test_case "PAT census three keys" `Quick
            test_pat_census_three_keys;
          Alcotest.test_case "PAT census populated" `Quick
            test_pat_census_populated;
          Alcotest.test_case "PAT-VLK census" `Quick test_vlk_census;
          Alcotest.test_case "4-ST census" `Quick test_kary_census;
          Alcotest.test_case "emit pat_shape_*" `Quick test_shape_emit;
        ] );
      ( "descent",
        [
          Alcotest.test_case "PAT descent accounting" `Quick test_pat_descent;
          Alcotest.test_case "disabled + monotone" `Quick
            test_descent_disabled_and_monotone;
          Alcotest.test_case "4-ST descent accounting" `Quick
            test_kary_descent;
        ] );
      ( "registry",
        [
          Alcotest.test_case "census capability uniform" `Quick
            test_registry_capability;
        ] );
    ]
