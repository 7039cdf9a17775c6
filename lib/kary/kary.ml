(* Non-blocking k-ary search tree in the style of

     T. Brown and J. Helga, "Non-blocking k-ary search trees",
     OPODIS 2011,

   the "4-ST" baseline of the Patricia-trie paper's evaluation (the paper
   uses k = 4, found optimal in Brown & Helga's experiments; so do we).

   The tree is leaf-oriented.  An internal node has k children and k-1
   sorted routing keys; a leaf holds up to k-1 sorted keys.  Updates use
   the Ellen-et-al. flag/mark/help coordination, generalized:

   - inserts replace a non-full leaf by a bigger leaf (one child CAS), or
     "sprout" a full leaf into an internal node with k singleton-leaf
     children;
   - deletes replace a leaf by a smaller leaf (one child CAS), or, when
     the parent's children are all leaves whose remaining keys fit in a
     single leaf, "prune" the parent: mark it and swing the grandparent's
     child pointer to a consolidated leaf (exactly the BST delete shape).

   As in the BST, the per-internal-node [update] field holds a
   (state, info) record CASed by physical identity; fresh records per
   write rule out ABA.  Unflagging installs a fresh Clean record with no
   [info]: nothing reads a Clean record's [info], and keeping the
   finished descriptor there would keep the leaf or subtree it retired
   reachable from the live tree. *)

let k = 4
(* [k] is the default arity (the paper's 4-ST); [create_k] builds trees of
   any arity >= 2, used by the arity-sweep experiment that re-checks Brown
   & Helga's finding that k = 4 is a sweet spot. *)

type node = Leaf of int array (* sorted, length <= k-1 *) | Node of internal

and internal = {
  keys : int array; (* sorted, length k-1 *)
  children : node Atomic.t array; (* length k *)
  update : update Atomic.t;
}

(* [info] is never assigned; it is [mutable] only so that the compiler
   cannot share a constant [{ state = Clean; info = No_info }] as one
   static block — every unflag must install a physically fresh record. *)
and update = { state : state; mutable info : info }

and state = Clean | IFlag | DFlag | Mark

and info = No_info | I of iinfo | D of dinfo

(* Replace leaf [il] (child [islot] of [ip]) by [inew]. *)
and iinfo = { ip : internal; islot : int; il : node; inew : node }

(* Prune: replace child [dslot] of [dgp] (which is the internal [dp],
   boxed as [dp_node]) by the consolidated leaf [dnew]; [pupdate] was read
   from dp.update before flagging dgp. *)
and dinfo = {
  dgp : internal;
  dslot : int;
  dp : internal;
  dp_node : node;
  dnew : node;
  pupdate : update;
}

(* Descent-cost accounting, comparable across the registry: one count
   per child pointer followed (the root's child is depth 1).  Striped
   per domain like every hot-path counter; disabled cost is one
   branch. *)
type stats = {
  descent_find : Obs.Counter.t;
  descent_insert : Obs.Counter.t;
  descent_delete : Obs.Counter.t;
  descent_searches : Obs.Counter.t;
  descent_depth : Obs.Histogram.t;
}

type t = { root : internal; universe : int; arity : int; stats : stats option }

let name = "4-ST"

let make_stats () =
  {
    descent_find = Obs.Counter.create ();
    descent_insert = Obs.Counter.create ();
    descent_delete = Obs.Counter.create ();
    descent_searches = Obs.Counter.create ();
    descent_depth = Obs.Histogram.create ();
  }

let[@inline] descent (stats : stats option) (field : stats -> Obs.Counter.t) d =
  match stats with
  | None -> ()
  | Some s ->
      Obs.Counter.add (field s) d;
      Obs.Counter.incr s.descent_searches;
      Obs.Histogram.record s.descent_depth d

let clean () = { state = Clean; info = No_info }

let new_internal keys children =
  { keys; children = Array.map Atomic.make children; update = Atomic.make (clean ()) }

let create_k ~k:arity ?(record_stats = false) ~universe () =
  if universe < 1 then invalid_arg "Kary.create: universe must be >= 1";
  if arity < 2 then invalid_arg "Kary.create_k: arity must be >= 2";
  (* Sentinel routing keys >= universe push every real key into child 0;
     the root is never replaced. *)
  let keys = Array.init (arity - 1) (fun i -> universe + i) in
  (* [Leaf [||]] would be one static block shared by every slot. *)
  let children = Array.init arity (fun _ -> Leaf (Array.make 0 0)) in
  {
    root = new_internal keys children;
    universe;
    arity;
    stats = (if record_stats then Some (make_stats ()) else None);
  }

let create ~universe ?record_stats () = create_k ~k ?record_stats ~universe ()

(* Child slot a key routes to: the number of routing keys <= key. *)
let child_slot (keys : int array) key =
  let rec go i = if i < Array.length keys && keys.(i) <= key then go (i + 1) else i in
  go 0

let leaf_mem (a : int array) key =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = key then true else if a.(mid) < key then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let leaf_add a key =
  let n = Array.length a in
  let b = Array.make (n + 1) key in
  let rec go i j =
    if i < n then
      if a.(i) < key then begin
        b.(j) <- a.(i);
        go (i + 1) (j + 1)
      end
      else begin
        b.(j) <- key;
        Array.blit a i b (j + 1) (n - i)
      end
    else b.(j) <- key
  in
  go 0 0;
  b

let leaf_remove a key =
  let n = Array.length a in
  let b = Array.make (n - 1) 0 in
  let j = ref 0 in
  Array.iter
    (fun x ->
      if x <> key then begin
        b.(!j) <- x;
        incr j
      end)
    a;
  b

type search_result = {
  gp : internal option;
  gpslot : int;
  p : internal;
  p_node : node;
  pslot : int;
  l : int array;
  l_node : node;
  pupdate : update;
  gpupdate : update option;
  depth : int; (* child pointers followed to reach [l_node]; root's child = 1 *)
}

let search t key =
  let rec go gp gpslot gpupdate (p : internal) p_node pupdate d =
    let slot = child_slot p.keys key in
    let child = Atomic.get p.children.(slot) in
    match child with
    | Node i ->
        go (Some p) slot (Some pupdate) i child (Atomic.get i.update) (d + 1)
    | Leaf a ->
        {
          gp;
          gpslot;
          p;
          p_node;
          pslot = slot;
          l = a;
          l_node = child;
          pupdate;
          gpupdate;
          depth = d + 1;
        }
  in
  go None 0 None t.root (Node t.root) (Atomic.get t.root.update) 0

let member t key =
  let r = search t key in
  descent t.stats (fun s -> s.descent_find) r.depth;
  leaf_mem r.l key

let help_insert_u (u : update) =
  match u.info with
  | I op ->
      ignore (Atomic.compare_and_set op.ip.children.(op.islot) op.il op.inew);
      ignore (Atomic.compare_and_set op.ip.update u (clean ()))
  | _ -> assert false

let help_marked (u_dflag : update) (op : dinfo) =
  ignore (Atomic.compare_and_set op.dgp.children.(op.dslot) op.dp_node op.dnew);
  ignore (Atomic.compare_and_set op.dgp.update u_dflag (clean ()))

let rec help_delete (u_dflag : update) (op : dinfo) =
  ignore
    (Atomic.compare_and_set op.dp.update op.pupdate { state = Mark; info = D op });
  let result = Atomic.get op.dp.update in
  match result with
  | { state = Mark; info = D op' } when op' == op ->
      help_marked u_dflag op;
      true
  | _ ->
      help result;
      ignore (Atomic.compare_and_set op.dgp.update u_dflag (clean ()));
      false

and help (u : update) =
  match (u.state, u.info) with
  | IFlag, I _ -> help_insert_u u
  | DFlag, D op -> ignore (help_delete u op)
  | Mark, D op -> (
      match Atomic.get op.dgp.update with
      | { state = DFlag; info = D op' } as u' when op' == op -> help_marked u' op
      | _ -> ())
  | _ -> ()

(* Sprout a full leaf plus one new key into an internal node: the k sorted
   keys become k singleton-leaf children separated by the k-1 largest. *)
let sprout ~arity sorted_keys =
  let seps = Array.sub sorted_keys 1 (arity - 1) in
  let children = Array.map (fun key -> Leaf [| key |]) sorted_keys in
  Node (new_internal seps children)

let insert t key =
  if key < 0 || key >= t.universe then invalid_arg "Kary.insert: key out of universe";
  let rec attempt () =
    let r = search t key in
    descent t.stats (fun s -> s.descent_insert) r.depth;
    if leaf_mem r.l key then false
    else if r.pupdate.state <> Clean then begin
      help r.pupdate;
      attempt ()
    end
    else begin
      let inew =
        if Array.length r.l < t.arity - 1 then Leaf (leaf_add r.l key)
        else sprout ~arity:t.arity (leaf_add r.l key)
      in
      let op = { ip = r.p; islot = r.pslot; il = r.l_node; inew } in
      let u = { state = IFlag; info = I op } in
      if Atomic.compare_and_set r.p.update r.pupdate u then begin
        help_insert_u u;
        true
      end
      else begin
        help (Atomic.get r.p.update);
        attempt ()
      end
    end
  in
  attempt ()

(* A delete prunes when every child of p is a leaf and the keys remaining
   after the deletion fit in one leaf.  The children are read *after*
   p.update (via the search's pupdate), so a successful DFlag/Mark pair
   certifies they did not change in between. *)
let prune_candidate (p : internal) key =
  let arity = Array.length p.children in
  let rec go i acc =
    if i >= arity then Some (List.rev acc)
    else
      match Atomic.get p.children.(i) with
      | Node _ -> None
      | Leaf a -> go (i + 1) (a :: acc)
  in
  match go 0 [] with
  | None -> None
  | Some leaves ->
      (* The children are re-read here and may be newer than the search's
         snapshot (in which case the later flag/mark CASes fail and the
         delete restarts), so make no assumption that [key] is present. *)
      let remaining =
        List.concat_map
          (fun a -> Array.to_list a |> List.filter (fun x -> x <> key))
          leaves
        |> List.sort Int.compare
      in
      if List.length remaining > arity - 1 then None
      else Some (Leaf (Array.of_list remaining))

let delete t key =
  if key < 0 || key >= t.universe then invalid_arg "Kary.delete: key out of universe";
  let rec attempt () =
    let r = search t key in
    descent t.stats (fun s -> s.descent_delete) r.depth;
    if not (leaf_mem r.l key) then false
    else if r.pupdate.state <> Clean then begin
      help r.pupdate;
      attempt ()
    end
    else begin
      match (r.gp, r.gpupdate) with
      | Some _, Some gpupdate when gpupdate.state <> Clean ->
          help gpupdate;
          attempt ()
      | Some gp, Some gpupdate -> (
          match prune_candidate r.p key with
          | Some merged ->
              (* Pruning delete: DFlag gp, mark p, swing gp's child. *)
              let op =
                {
                  dgp = gp;
                  dslot = r.gpslot;
                  dp = r.p;
                  dp_node = r.p_node;
                  dnew = merged;
                  pupdate = r.pupdate;
                }
              in
              let u = { state = DFlag; info = D op } in
              if Atomic.compare_and_set gp.update gpupdate u then begin
                if help_delete u op then true else attempt ()
              end
              else begin
                help (Atomic.get gp.update);
                attempt ()
              end
          | None -> simple_delete r)
      | _ -> simple_delete r
    end
  and simple_delete r =
    (* Simple delete: replace the leaf by a smaller leaf (IFlag shape). *)
    let op =
      {
        ip = r.p;
        islot = r.pslot;
        il = r.l_node;
        inew = Leaf (leaf_remove r.l key);
      }
    in
    let u = { state = IFlag; info = I op } in
    if Atomic.compare_and_set r.p.update r.pupdate u then begin
      help_insert_u u;
      true
    end
    else begin
      help (Atomic.get r.p.update);
      attempt ()
    end
  in
  attempt ()

let fold_leaves t ~init ~f =
  (* Sentinel keys exist only as routing keys, never in leaves, so every
     leaf key is a real element. *)
  let rec go acc = function
    | Leaf a -> Array.fold_left f acc a
    | Node i -> Array.fold_left (fun acc c -> go acc (Atomic.get c)) acc i.children
  in
  go init (Node t.root)

let to_list t = fold_leaves t ~init:[] ~f:(fun acc x -> x :: acc) |> List.sort Int.compare
let size t = fold_leaves t ~init:0 ~f:(fun acc _ -> acc + 1)

let check_invariants t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let sorted a =
    Array.iteri (fun i x -> if i > 0 && a.(i - 1) >= x then err "unsorted keys") a
  in
  let rec go lo hi = function
    | Leaf a ->
        sorted a;
        Array.iter
          (fun x -> if not (lo <= x && x < hi) then err "leaf key %d outside [%d,%d)" x lo hi)
          a
    | Node i ->
        sorted i.keys;
        let arity = Array.length i.children in
        if Array.length i.keys <> arity - 1 then
          err "internal with %d keys for %d children" (Array.length i.keys) arity;
        Array.iteri
          (fun slot c ->
            let lo' = if slot = 0 then lo else i.keys.(slot - 1) in
            let hi' = if slot = Array.length i.keys then hi else i.keys.(slot) in
            go lo' hi' (Atomic.get c))
          i.children
  in
  go min_int max_int (Node t.root);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Structure forensics *)

(* 64-bit layout, in words.  Internal: [Node] wrapper 2, record header +
   3 fields, routing-key array [arity] (k-1 elems + header), children
   array [arity + 1], one 2-word Atomic box per child, update Atomic 2,
   Clean update record 3 — [12 + 4*arity] total.  A leaf of [n] keys:
   [Leaf] wrapper 2 + int array [n + 1], except that every empty leaf
   shares the runtime's one empty-array atom, charged to the first only.
   In quiescence the estimate equals [Obj.reachable_words] exactly. *)
let internal_words arity = 12 + (4 * arity)

let census t =
  let a = Obs.Shape.acc ~structure:name in
  let empty_seen = ref false in
  let leaf_words n =
    if n > 0 then n + 3
    else if !empty_seen then 2
    else begin
      empty_seen := true;
      3
    end
  in
  (* Routing keys carry no key-prefix; internals enter the prefix-length
     distribution as 0-bit labels. *)
  let rec go depth node =
    match node with
    | Leaf keys ->
        Obs.Shape.leaf a ~depth ~keys:(Array.length keys) ~sentinel:false
          ~words:(leaf_words (Array.length keys))
    | Node i ->
        let arity = Array.length i.children in
        Obs.Shape.internal a ~depth ~prefix_len:0 ~children:arity
          ~words:(internal_words arity);
        Array.iter (fun c -> go (depth + 1) (Atomic.get c)) i.children
  in
  go 0 (Node t.root);
  (* Measured from a [Node] box too, as the walk charges the root one. *)
  let measured_words = Obj.reachable_words (Obj.repr (Node t.root)) in
  Some (Obs.Shape.finish ~measured_words a)

let descent_stats t =
  match t.stats with
  | None -> None
  | Some s ->
      Some
        [
          ("descent_nodes_find", Obs.Counter.sum s.descent_find);
          ("descent_nodes_insert", Obs.Counter.sum s.descent_insert);
          ("descent_nodes_delete", Obs.Counter.sum s.descent_delete);
          ("descent_searches", Obs.Counter.sum s.descent_searches);
        ]

let descent_summary t =
  match t.stats with
  | None -> None
  | Some s -> Some (Obs.Histogram.snapshot s.descent_depth)

let snapshot _ = None
