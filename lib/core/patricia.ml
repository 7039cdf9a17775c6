(* Non-blocking Patricia trie with replace operations over l-bit integer
   keys: {!Patricia_gen.Make} instantiated with {!Bitkey.Packed}
   labels, plus what only this trie has — the embedding of a user
   universe into l-bit keys, label-interval pruning for range folds,
   and [min_elt]/[max_elt]. *)

module Packed = Bitkey.Packed

module Int_label = struct
  type key = int
  type label = Packed.t (* an immediate: no block per label *)
  type ctx = int (* key width l *)

  (* Every primitive on the search path is width-free in the packed
     encoding, so these bind the {!Bitkey.Packed} functions directly and
     a search step costs one call per primitive. *)
  let leaf_label = Packed.of_key
  let is_prefix_of_key = Packed.is_prefix_of_key
  let next_bit_of_key = Packed.next_bit_of_key
  let next_bit = Packed.next_bit
  let lcp = Packed.lcp
  let is_prefix = Packed.is_prefix
  let compare = Packed.compare
  let extend = Packed.extend
  let length width l = Packed.length ~width l
  let empty width = Packed.empty ~width
  let pp width = Packed.pp ~width
  let sentinel_lo _ = 0
  let sentinel_hi width = (1 lsl width) - 1
  let is_sentinel width k = k = 0 || k = (1 lsl width) - 1
  let key_equal (a : int) b = a = b
  let trace_key k = k
  let label_words _ = 0 (* an immediate *)
  let key_words _ = 0 (* an immediate *)
end

module G = Patricia_gen.Make (Int_label)

type t = {
  g : G.t;
  width : int;
  offset : int; (* user key k is stored as k + offset *)
  bound : int; (* exclusive upper bound on user keys *)
}

let name = "PAT"

let create_width ~width ?(record_stats = false) () =
  if width < 2 || width > Bitkey.max_width then
    invalid_arg "Patricia.create_width: width must be in [2, 62]";
  { g = G.create width ~record_stats; width; offset = 0; bound = (1 lsl width) - 1 }

let create ~universe ?record_stats () =
  if universe < 1 then invalid_arg "Patricia.create: universe must be >= 1";
  (* Embed user keys [0, universe) as internal keys [1, universe], leaving
     0 and 2^width - 1 free for the sentinels. *)
  let width = max 2 (Bitkey.bit_length (universe + 1)) in
  let t = create_width ~width ?record_stats () in
  { t with offset = 1; bound = universe }

let internal_key t k =
  let k' = k + t.offset in
  if k < 0 || k >= t.bound || k' < 1 || k' >= Int_label.sentinel_hi t.width
  then invalid_arg "Patricia: key out of the universe"
  else k'

let member t k = G.member t.g (internal_key t k)
let insert t k = G.insert t.g (internal_key t k)
let delete t k = G.delete t.g (internal_key t k)

let replace t ~remove ~add =
  G.replace t.g (internal_key t remove) (internal_key t add)

(* ------------------------------------------------------------------ *)
(* Traversals *)

let fold t ~init ~f = G.fold_leaves t.g ~init ~f:(fun acc k -> f acc (k - t.offset))
let iter t ~f = fold t ~init:() ~f:(fun () k -> f k)
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k -> k :: acc))
let size t = G.size t.g

exception Found_key of int

let min_elt t =
  match fold t ~init:() ~f:(fun () k -> raise_notrace (Found_key k)) with
  | () -> None
  | exception Found_key k -> Some k

let max_elt t =
  match
    G.fold_tree t.width ~live:true ~descending:true ~enter:G.everywhere
      (G.root t.g) ~init:() ~f:(fun () k -> raise_notrace (Found_key k))
  with
  | () -> None
  | exception Found_key k -> Some (k - t.offset)

(* Range query: visit keys in [lo, hi] in ascending order, pruning every
   subtree whose label interval is disjoint from the range — the
   quadtree-style search the paper's GIS application relies on.  [live]
   as in {!Patricia_gen.Make.fold_tree}. *)
let fold_range_from ~live ~width ~offset ~bound root ~lo ~hi ~init ~f =
  (* Clamp to the valid user-key range: [0, bound) for embedded-universe
     tries, [1, 2^w - 2] for raw-width tries (offset 0). *)
  let lo = max lo (1 - offset) and hi = min hi (bound - 1) in
  if lo > hi then init
  else
    let ilo = lo + offset and ihi = hi + offset in
    (* The subtree under a node holds exactly the keys between its
       label's [lo] and [hi]. *)
    let enter l = Packed.hi l >= ilo && Packed.lo l <= ihi in
    G.fold_tree width ~live ~descending:false ~enter root ~init ~f:(fun acc k ->
        if k >= ilo && k <= ihi then f acc (k - offset) else acc)

let fold_range t ~lo ~hi ~init ~f =
  fold_range_from ~live:true ~width:t.width ~offset:t.offset ~bound:t.bound
    (G.root t.g) ~lo ~hi ~init ~f

(* ------------------------------------------------------------------ *)
(* Snapshots (see [Snapshots] in {!Patricia_gen}) *)

type view = { gv : G.view; voffset : int; vbound : int }

let snapshot t = { gv = G.snapshot t.g; voffset = t.offset; vbound = t.bound }

module View = struct
  type t = view

  let epoch v = G.View.epoch v.gv

  let fold v ~init ~f =
    G.View.fold v.gv ~init ~f:(fun acc k -> f acc (k - v.voffset))

  let fold_range v ~lo ~hi ~init ~f =
    fold_range_from ~live:false ~width:v.gv.vctx ~offset:v.voffset
      ~bound:v.vbound v.gv.vroot ~lo ~hi ~init ~f

  let to_list v = List.rev (fold v ~init:[] ~f:(fun acc k -> k :: acc))
  let size v = G.View.size v.gv
  let to_seq v = Seq.map (fun k -> k - v.voffset) (G.View.to_seq v.gv)
end

let snapshot_capability t =
  let v = snapshot t in
  Some
    Dset_intf.
      {
        v_epoch = View.epoch v;
        v_fold = (fun ~init ~f -> View.fold v ~init ~f);
        v_fold_range = (fun ~lo ~hi ~init ~f -> View.fold_range v ~lo ~hi ~init ~f);
        v_to_seq = (fun () -> View.to_seq v);
      }

(* ------------------------------------------------------------------ *)
(* Counters, audits and forensics *)

type snapshot = Patricia_gen.snapshot = {
  attempts : int;
  helps_given : int;
  helps_received : int;
  flag_failures : int;
  backtracks : int;
  backoff_waits : int;
  descent_nodes_find : int;
  descent_nodes_insert : int;
  descent_nodes_delete : int;
  descent_nodes_replace : int;
  descent_searches : int;
}

let stats_snapshot t = G.stats_snapshot t.g

(* Monotone cumulative counters only: the harness differences two of
   these alists around a timed window, so a percentile or a mean here
   would produce garbage.  Mean descent depth is derived downstream as
   descent_nodes_* / descent_searches over the deltas. *)
let stats_to_alist (s : snapshot) =
  [
    ("attempts", s.attempts);
    ("helps_given", s.helps_given);
    ("helps_received", s.helps_received);
    ("flag_failures", s.flag_failures);
    ("backtracks", s.backtracks);
    ("backoff_waits", s.backoff_waits);
    ("descent_nodes_find", s.descent_nodes_find);
    ("descent_nodes_insert", s.descent_nodes_insert);
    ("descent_nodes_delete", s.descent_nodes_delete);
    ("descent_nodes_replace", s.descent_nodes_replace);
    ("descent_searches", s.descent_searches);
  ]

let descent_stats t = G.descent_stats t.g
let descent_summary t = G.descent_summary t.g
let check_invariants t = G.check_invariants t.g
let census t = G.census ~structure:name t.g

module For_testing = struct
  type descriptor = G.info

  let help = G.For_testing.help
  let prepare_insert t k = G.For_testing.prepare_insert t.g (internal_key t k)
  let prepare_delete t k = G.For_testing.prepare_delete t.g (internal_key t k)
  let flag_only = G.For_testing.flag_only
  let set_help_hook = G.For_testing.set_help_hook
  let flags_on_path t k = G.For_testing.flags_on_path t.g (internal_key t k)
end
