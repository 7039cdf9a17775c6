(* Non-blocking Patricia trie with replace operations, generic in the
   key and label representation.

   This is a direct transcription of the algorithm of

     N. Shafiei, "Non-blocking Patricia Tries with Replace Operations",
     ICDCS 2013 (arXiv:1303.3626),

   for an asynchronous shared-memory system with single-word CAS.  Line
   numbers in comments refer to the paper's pseudocode (Figures 2-4).
   Section VI of the paper presents the variable-length-key trie as the
   same algorithm over bit-string labels; [Make] is that algorithm once,
   over any [LABEL].  {!Patricia} instantiates it with l-bit integer
   keys and {!Patricia_vlk} with {!Bitkey.Bitstr} bit strings.

   Concurrency notes specific to OCaml 5:

   - [Atomic.compare_and_set] compares by physical equality, which matches
     the paper's pointer-identity CAS.
   - The paper avoids the ABA problem on [info] fields by installing a
     *newly allocated* Unflag object on every unflag/backtrack CAS; we
     reproduce this with an [Unflag] constructor over a mutable inline
     record, which the compiler may never share, so every [Unflag]
     value is a fresh block and two are never physically equal.
   - A node is one block: [Leaf] and [Internal] carry inline records,
     and an internal node's two children are two [Atomic.t] fields.  A
     node value read from a child cell is therefore the node itself,
     and CASing it back as an expected old child needs no care about
     re-wrapping.
   - A Flag descriptor must be wrapped in the [info] variant exactly once
     so that all CASes and reads compare the same physical value; the
     shared wrapper is created in the newFlag family and threaded
     everywhere.

   Snapshots (not part of the paper; see the [Snapshots] section below):
   the trie root sits behind a generation-stamped holder, every update
   descriptor validates the holder at a single decision CAS, and a
   snapshot swings the holder to a copied root — O(1) in the number of
   keys — after which the old generation is immutable. *)

(* Keys, node labels and the prefix arithmetic on them.  A key is the
   label of its leaf; the two sentinel keys bracket every other key and
   are never elements of the set. *)
module type LABEL = sig
  type key
  type label

  type ctx
  (** Per-trie context passed to the key-side operations (the key width
      for fixed-width keys). *)

  val leaf_label : key -> label

  val next_bit_of_key : label -> key -> int
  (** Child direction at a node with this label (line 82). *)

  val is_prefix_of_key : label -> key -> bool
  (** Does the search for the key continue below a node with this label
      (line 79)? *)

  val next_bit : label -> label -> int
  (** [next_bit p b]: the bit of [b] just after its proper prefix [p]. *)

  val lcp : label -> label -> label
  val is_prefix : label -> label -> bool

  val compare : label -> label -> int
  (** Any total order: nodes are flagged in this order (line 115). *)

  val extend : label -> int -> label
  val length : ctx -> label -> int
  val empty : ctx -> label
  val pp : ctx -> Format.formatter -> label -> unit
  val sentinel_lo : ctx -> key
  val sentinel_hi : ctx -> key
  val is_sentinel : ctx -> key -> bool
  val key_equal : key -> key -> bool

  val trace_key : key -> int
  (** The flight recorder's [key] field for a key. *)

  val label_words : label -> int
  val key_words : key -> int
  (** Heap words a label or key adds to the node holding it, for the
      census layout estimate (0 for an immediate). *)
end

(* Counters for the help-rate ablation and the observability layer;
   disabled (None) by default so the hot path pays a single branch.
   Each counter is striped per domain ([Obs.Counter]): enabling stats
   does not share one Atomic.t across domains, so the instrumentation
   does not become the contention hotspot it is measuring. *)
type stats = {
  attempts : Obs.Counter.t; (* retry-loop iterations across all updates *)
  helps_given : Obs.Counter.t; (* calls to help on *another* op's descriptor *)
  helps_received : Obs.Counter.t;
      (* flag CASes lost because another process had already installed
         this very descriptor — i.e. our operation was helped along *)
  flag_failures : Obs.Counter.t; (* attempts abandoned in the flagging phase *)
  backtracks : Obs.Counter.t; (* failed flag phases backed out in help *)
  backoff_waits : Obs.Counter.t;
      (* retries that paused in the contention backoff (Chaos.Backoff) *)
  (* Descent-cost accounting: nodes visited per search (root included),
     split by the opcode that ran the search, plus a depth histogram
     for the tail.  One search = one histogram record + one counter
     add, on the recording domain's own stripe. *)
  descent_find : Obs.Counter.t;
  descent_insert : Obs.Counter.t;
  descent_delete : Obs.Counter.t;
  descent_replace : Obs.Counter.t;
  descent_searches : Obs.Counter.t;
  descent_depth : Obs.Histogram.t;
}

(* Point-in-time merged view of the counters (see [stats_snapshot]). *)
type snapshot = {
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

let make_stats () : stats =
  {
    attempts = Obs.Counter.create ();
    helps_given = Obs.Counter.create ();
    helps_received = Obs.Counter.create ();
    flag_failures = Obs.Counter.create ();
    backtracks = Obs.Counter.create ();
    backoff_waits = Obs.Counter.create ();
    descent_find = Obs.Counter.create ();
    descent_insert = Obs.Counter.create ();
    descent_delete = Obs.Counter.create ();
    descent_replace = Obs.Counter.create ();
    descent_searches = Obs.Counter.create ();
    descent_depth = Obs.Histogram.create ();
  }

(* The disabled-stats hot path must stay a single branch: [None -> ()]
   and nothing else.  The closure arguments below are constant (capture
   nothing), so the compiler lifts them to static data — no allocation
   either way. *)
let[@inline] bump (stats : stats option) (field : stats -> Obs.Counter.t) =
  match stats with None -> () | Some s -> Obs.Counter.incr (field s)

(* One completed search: [d] nodes visited, attributed to the opcode's
   counter.  Same disabled contract as [bump] — [None] is one branch. *)
let[@inline] descent (stats : stats option) (field : stats -> Obs.Counter.t) d =
  match stats with
  | None -> ()
  | Some s ->
      Obs.Counter.add (field s) d;
      Obs.Counter.incr s.descent_searches;
      Obs.Histogram.record s.descent_depth d

(* Fault-injection site (lib/chaos).  Same hot-path discipline as
   [bump]: with no chaos policy installed this is one atomic load and an
   untaken branch, inlined at every labelled synchronization point. *)
let[@inline] chaos_point (s : Chaos.site) =
  if Atomic.get Chaos.active then Chaos.hit s

(* Pause before retrying a failed update attempt.  [bo] is the backoff
   state (a plain int) threaded through the attempt loop; with backoff
   disabled (the default) this retries immediately, as in the paper. *)
let[@inline] retry_pause (stats : stats option) bo =
  chaos_point Chaos.Retry;
  if Chaos.Backoff.enabled () then begin
    bump stats (fun s -> s.backoff_waits);
    Chaos.Backoff.wait bo
  end
  else bo

(* Flight recorder (lib/obs).  Two further gated instrumentation
   families alongside [bump] and [chaos_point], with the same disabled
   cost — one atomic load and an untaken branch per site:

   - one closed span per update attempt into the global trace recorder
     ([Obs.Trace.set_recorder]), labelled with the attempt number and
     the retry cause / CAS site it ended at;
   - per-cause retry attribution ([Obs.Attribution.mark] and
     [op_complete], both gated internally on their own flag).

   [span_start] reads the clock only when tracing is live; a zero start
   marks the attempt as untraced, so the completion helpers need no
   second atomic load. *)
let[@inline] span_start () =
  if Atomic.get Obs.Trace.active then Obs.Clock.now_ns () else 0


module Make (L : LABEL) = struct
  type info =
    | Unflag of { mutable fresh : unit }
        (* Mutable, so every construction allocates a new block: the
           physical identity is the whole point of the value. *)
    | Flag of flag
    | Snap of snap

  and node =
    | Leaf of { key : L.key; linfo : info Atomic.t }
    | Internal of {
        label : L.label;
        c0 : node Atomic.t; (* left child: next bit 0 *)
        c1 : node Atomic.t; (* right child: next bit 1 *)
        iinfo : info Atomic.t;
        gen : int;
            (* Generation stamp: the [epoch] of the holder that was
               current when this node was created.  Immutable.  Epochs
               of installed holders are distinct, since each snapshot
               installs [epoch + 1] over the holder it read.  Updates
               renew (copy into the current generation) every internal
               node they descend through whose stamp is stale, so the
               nodes whose children they CAS always belong to the live
               generation and the frozen generations behind past
               snapshots are never mutated. *)
      }

  (* One generation of the trie: its [epoch] and root.  The live
     generation is the one in [t.holder]; a snapshot replaces it
     wholesale (fresh [hroot] sharing the old children), so a holder
     value doubles as a frozen, immutable version once superseded. *)
  and holder = { epoch : int; hroot : node }

  (* The fate of an update descriptor.  [Pending] until some process
     that completed the flagging phase validates the generation; the
     single decision CAS is the only place an update commits, so a
     snapshot that swings the holder strictly before that CAS is never
     missed. *)
  and decision = Pending | Commit | Abort

  (* The Flag descriptor (paper Figure 2, lines 8-16).  [flag_nodes] are
     the internal nodes to flag, sorted by label; [old_infos.(i)] is the
     value that must still be in [flag_nodes.(i)]'s info field for the
     flag CAS to succeed.  [pnodes.(i)]'s child is CASed from
     [old_children.(i)] to [new_children.(i)].  [unflag_nodes] are
     unflagged afterwards; flagged nodes absent from it are removed from
     the trie and stay flagged ("marked") forever.  [rmv_leaf] is the
     leaf logically removed by a general-case replace. *)
  and flag = {
    flag_nodes : node array;
    old_infos : info array;
    unflag_nodes : node array;
    pnodes : node array;
    old_children : node array;
    new_children : node array;
    rmv_leaf : node option;
    decision : decision Atomic.t;
        (* Replaces the paper's [flag_done] bit: [Commit] is decided by
           the single CAS of a process that observed every flag CAS
           succeed *and* the owning trie's holder still equal to
           [fholder]; the child CASes run only under a [Commit].  The
           paper's semantics are the special case where the holder
           never changes. *)
    fholder : holder; (* the generation this attempt's search ran against *)
    fcell : holder Atomic.t; (* the owning trie's holder cell, for validation *)
    fstats : stats option;
        (* The owning trie's counters, carried by the descriptor so that
           helpers — which see only the descriptor — can attribute
           events (helps received, backtracks) to the right trie. *)
  }

  (* Descriptor of an in-flight snapshot, installed on the old root's
     info field like a one-node flag: it proves the root's children did
     not change between being copied into [s_new.hroot] and the holder
     CAS, and it lets any process (an update that finds it while
     flagging the root, or a concurrent snapshot) complete the swing. *)
  and snap = { s_old : holder; s_new : holder; s_cell : holder Atomic.t }

  type t = {
    ctx : L.ctx;
    holder : holder Atomic.t; (* the live generation; swung only by snapshots *)
    slots : info option Atomic.t list Atomic.t;
        (* Published-descriptor registry: one slot per domain that ever
           updated this trie.  An update publishes its descriptor before
           the flagging phase and clears the slot after completion, so a
           snapshot can resolve (commit or abort) every descriptor that
           might still commit against the generation it froze — the
           scan is O(#domains), independent of the key count. *)
    slot_key : info option Atomic.t option ref Domain.DLS.key;
    stats : stats option;
  }

  (* The calling domain's published-descriptor slot for [t], created and
     registered on first use. *)
  let my_slot t =
    let r = Domain.DLS.get t.slot_key in
    match !r with
    | Some s -> s
    | None ->
        let s = Atomic.make None in
        let rec push () =
          let l = Atomic.get t.slots in
          if not (Atomic.compare_and_set t.slots l (s :: l)) then push ()
        in
        push ();
        r := Some s;
        s

  let fresh_unflag () = Unflag { fresh = () }
  let new_leaf key = Leaf { key; linfo = Atomic.make (fresh_unflag ()) }

  let new_internal ~gen label c0 c1 =
    Internal
      {
        label;
        c0 = Atomic.make c0;
        c1 = Atomic.make c1;
        iinfo = Atomic.make (fresh_unflag ());
        gen;
      }

  let node_info = function Leaf l -> l.linfo | Internal i -> i.iinfo

  let node_label = function
    | Leaf l -> L.leaf_label l.key
    | Internal i -> i.label

  (* The child cell of internal node [n] in direction [k]: every child
     read and child CAS goes through here. *)
  let[@inline] child_cell n k =
    match n with
    | Internal i -> if k = 0 then i.c0 else i.c1
    | Leaf _ -> invalid_arg "Patricia_gen.child_cell: leaf"

  let span_emit kind ~key ~ok ~attempt ~site ~t0 =
    match Obs.Trace.recorder () with
    | Some tr ->
        Obs.Trace.emit_span tr kind ~key:(L.trace_key key) ~ok
          ~retries:(attempt - 1) ~attempt ~site ~t0_ns:t0
    | None -> ()

  let[@inline] flagged = function
    | Flag _ | Snap _ -> true
    | Unflag _ -> false

  (* Cause of a [None] return from the newFlag family, recovered from
     the info values the attempt read: if any was a Flag we restarted
     after helping a pending descriptor; otherwise a node changed
     between two reads of the same attempt. *)
  let[@inline] retry_cause2 a b =
    if flagged a || flagged b then Obs.Attribution.Flagged_ancestor
    else Obs.Attribution.Conflict

  (* Lines 18-19: the root is permanent (within its generation), its
     children start as the two sentinel leaves, which are never
     elements of D. *)
  let create ctx ~record_stats =
    let root =
      new_internal ~gen:0 (L.empty ctx)
        (new_leaf (L.sentinel_lo ctx))
        (new_leaf (L.sentinel_hi ctx))
    in
    {
      ctx;
      holder = Atomic.make { epoch = 0; hroot = root };
      slots = Atomic.make [];
      slot_key = Domain.DLS.new_key (fun () -> ref None);
      stats = (if record_stats then Some (make_stats ()) else None);
    }

  let root t = (Atomic.get t.holder).hroot

  (* ---------------------------------------------------------------- *)
  (* Search (lines 76-85) *)

  (* logicallyRemoved (lines 122-124): a leaf flagged by a general-case
     replace is logically removed once the replace's first child CAS has
     happened, i.e. once oldChild[0] is no longer a child of pNode[0]. *)
  let logically_removed = function
    | Unflag _ | Snap _ -> false
    | Flag f ->
        let p = f.pnodes.(0) and old = f.old_children.(0) in
        not
          (Atomic.get (child_cell p 0) == old
          || Atomic.get (child_cell p 1) == old)

  type search_result = {
    gp : node option;
    p : node;
    node : node;
    gp_info : info option;
    p_info : info;
    rmvd : bool;
    depth : int;
        (* Child pointers followed to reach [node] — the pointer-chase
           cost of this search, counting the terminal node but not the
           root (root's child = 1).  Computed from values the loop
           already holds, so uninstrumented searches pay one add per
           level. *)
  }

  (* keyInTrie (lines 125-126) *)
  let key_in_trie node v rmvd =
    match node with
    | Leaf l -> L.key_equal l.key v && not rmvd
    | Internal _ -> false

  (* find (lines 72-75) as its own descent: the search of lines 76-85
     reduced to what find uses.  It reads only labels, child cells and
     (at a leaf with the key) the leaf's info field; it writes nothing,
     allocates nothing and never checks generations, and for
     fixed-width keys it follows at most [width] child pointers.  [d]
     counts the pointers followed, as [search_result.depth]. *)
  let rec find_from stats v node d =
    match node with
    | Internal i when L.is_prefix_of_key i.label v ->
        find_from stats v
          (Atomic.get (child_cell node (L.next_bit_of_key i.label v)))
          (d + 1)
    | Leaf { key; linfo } ->
        descent stats (fun s -> s.descent_find) d;
        L.key_equal key v && not (logically_removed (Atomic.get linfo))
    | Internal _ ->
        descent stats (fun s -> s.descent_find) d;
        false

  let member t v = find_from t.stats v (root t) 0

  (* ---------------------------------------------------------------- *)
  (* help (lines 86-106) *)

  (* [flag_phase fi f] performs the flag CASes in order (lines 87-92)
     and returns the paper's [doChildCAS]: whether every node in
     f.flag_nodes was observed flagged with [fi] immediately after our
     CAS on it.

     A CAS that fails while the node nevertheless holds [fi] means some
     other process installed this very descriptor before us — the
     operation is being helped; count it on the owning trie. *)
  let flag_phase fi f =
    let n = Array.length f.flag_nodes in
    let rec loop i =
      if i >= n then true
      else begin
        let x = node_info f.flag_nodes.(i) in
        chaos_point Chaos.Flag_cas;
        let ours = Atomic.compare_and_set x f.old_infos.(i) fi in
        if Atomic.get x == fi then begin
          if not ours then bump f.fstats (fun s -> s.helps_received);
          loop (i + 1)
        end
        else false
      end
    in
    loop 0

  let child_cas_phase f =
    Array.iteri
      (fun i p ->
        let nc = f.new_children.(i) in
        (* Line 97: the child index is the (|p.label|+1)-th bit of the
           new child's label, which p.label properly prefixes by
           Invariant 7. *)
        let k = L.next_bit (node_label p) (node_label nc) in
        chaos_point Chaos.Child_cas;
        if not (Atomic.compare_and_set (child_cell p k) f.old_children.(i) nc)
        then
          (* Expected old child already gone: a helper or a conflicting
             update got there first.  Attempt number unknown on the
             helper side, recorded as 0. *)
          Obs.Attribution.mark Obs.Attribution.Child_cas_lost ~attempt:0;
        chaos_point Chaos.After_child_cas)
      f.pnodes

  let help_counter_hook : (unit -> unit) option ref = ref None

  (* A descriptor with one child CAS, on [pnode.(0)], which is also the
     only node unflagged afterwards: the shape of every update except
     the general-case replace and replace special case 4. *)
  let one_cas_flag t ~fh ~flag_nodes ~old_infos ~pnode ~old_child ~new_child =
    Some
      (Flag
         {
           flag_nodes;
           old_infos;
           unflag_nodes = pnode;
           pnodes = pnode;
           old_children = [| old_child |];
           new_children = [| new_child |];
           rmv_leaf = None;
           decision = Atomic.make Pending;
           fholder = fh;
           fcell = t.holder;
           fstats = t.stats;
         })

  (* Complete an in-flight snapshot found installed on a root: swing the
     holder (idempotent — the new holder value is carried by the
     descriptor, so every helper CASes to the same value) and release
     the old root's info field. *)
  let help_snap (si : info) (s : snap) =
    ignore (Atomic.compare_and_set s.s_cell s.s_old s.s_new);
    ignore
      (Atomic.compare_and_set (node_info s.s_old.hroot) si (fresh_unflag ()))

  let rec help (fi : info) : bool =
    match fi with
    | Unflag _ -> assert false
    | Snap s ->
        (* A snapshot never fails; completing it counts as success and
           the helper retries its own operation against the new
           generation. *)
        help_snap fi s;
        true
    | Flag f -> help_flag fi f

  and help_flag (fi : info) (f : flag) : bool =
    (match !help_counter_hook with Some h -> h () | None -> ());
    let do_child_cas = flag_phase fi f in
    (* The decision CAS (not in the paper): an update commits only if
       some process that saw every flag in place also saw the trie's
       holder still at the generation the attempt searched — so a
       snapshot that swung the holder first wins, and the update aborts
       and retries against the new generation.  Exactly one of
       Commit/Abort ever lands; every helper then follows the recorded
       outcome, which subsumes the paper's [flag_done] protocol. *)
    (if Atomic.get f.decision = Pending then
       let d =
         if do_child_cas && Atomic.get f.fcell == f.fholder then Commit
         else Abort
       in
       ignore (Atomic.compare_and_set f.decision Pending d));
    match Atomic.get f.decision with
    | Commit ->
        (* Line 95: flag the leaf removed by a general-case replace;
           leaves are flagged by a plain write, never by CAS, and never
           unflagged. *)
        (match f.rmv_leaf with Some l -> Atomic.set (node_info l) fi | None -> ());
        child_cas_phase f;
        (* Lines 99-102: unflag, in reverse order, the nodes still in
           the trie. *)
        chaos_point Chaos.Unflag;
        for i = Array.length f.unflag_nodes - 1 downto 0 do
          ignore
            (Atomic.compare_and_set
               (node_info f.unflag_nodes.(i))
               fi (fresh_unflag ()))
        done;
        true
    | Abort ->
        (* Lines 103-106: flagging failed (or the generation moved on) —
           back the flags out. *)
        chaos_point Chaos.Backtrack;
        bump f.fstats (fun s -> s.backtracks);
        Obs.Attribution.mark Obs.Attribution.Backtrack ~attempt:0;
        for i = Array.length f.flag_nodes - 1 downto 0 do
          ignore
            (Atomic.compare_and_set
               (node_info f.flag_nodes.(i))
               fi (fresh_unflag ()))
        done;
        false
    | Pending -> assert false

  (* Help a conflicting update found pending on a node we need (lines
     109-111); the caller then fails so its attempt restarts. *)
  and help_other t old =
    bump t.stats (fun s -> s.helps_given);
    ignore (help old);
    None

  (* Specialized newFlag for the one-flag shape (insert at a leaf,
     replace special case 1): allocation-lean version of the generic
     constructor below, to which it is behaviourally identical. *)
  and new_flag1 t ~fh ~node ~old ~old_child ~new_child =
    match old with
    | Flag _ | Snap _ -> help_other t old
    | Unflag _ ->
        let nodes = [| node |] in
        one_cas_flag t ~fh ~flag_nodes:nodes ~old_infos:[| old |] ~pnode:nodes
          ~old_child ~new_child

  (* Specialized newFlag for the two-flag, one-child-CAS shape (delete;
     insert replacing an internal node; replace special cases 2/3;
     renewal).  The first node of the pair is the one to unflag and CAS;
     the other is removed from the trie and stays flagged. *)
  and new_flag2 t ~fh ~a ~a_old ~b ~b_old ~old_child ~new_child =
    match (a_old, b_old) with
    | (Flag _ | Snap _), _ -> help_other t a_old
    | _, (Flag _ | Snap _) -> help_other t b_old
    | Unflag _, Unflag _ ->
        let pnode = [| a |] in
        if a == b then
          (* Duplicate flag target (lines 112-114): allowed only when
             both reads saw the same info value. *)
          if a_old == b_old then
            one_cas_flag t ~fh ~flag_nodes:pnode ~old_infos:[| a_old |] ~pnode
              ~old_child ~new_child
          else None
        else if L.compare (node_label a) (node_label b) <= 0 then
          one_cas_flag t ~fh ~flag_nodes:[| a; b |] ~old_infos:[| a_old; b_old |]
            ~pnode ~old_child ~new_child
        else
          one_cas_flag t ~fh ~flag_nodes:[| b; a |] ~old_infos:[| b_old; a_old |]
            ~pnode ~old_child ~new_child

  (* newFlag (lines 107-116), generic form used by the replace cases
     that flag three or four nodes.  Takes the nodes to flag paired with
     the info values read from them; returns the shared [Flag] info
     value, or [None] after helping a conflicting update (the caller
     then retries). *)
  and new_flag t ~fh ~flags ~unflag ~pnodes ~old_children ~new_children
      ~rmv_leaf =
    match List.find_opt (fun (_, i) -> flagged i) flags with
    | Some (_, old) -> help_other t old
    | None -> (
        (* Lines 112-114: duplicates in [flags] are fine iff they carry
           the same old info value (the same node read twice); otherwise
           the node changed between our two reads and we must retry. *)
        let rec dedup acc = function
          | [] -> Some (List.rev acc)
          | (n, i) :: rest -> (
              match List.find_opt (fun (n', _) -> n' == n) acc with
              | Some (_, i') -> if i' == i then dedup acc rest else None
              | None -> dedup ((n, i) :: acc) rest)
        in
        match dedup [] flags with
        | None -> None
        | Some flags ->
            let flags =
              (* Line 115: flag in a fixed total order to avoid livelock. *)
              List.sort
                (fun (a, _) (b, _) -> L.compare (node_label a) (node_label b))
                flags
            in
            let unflag =
              List.fold_left
                (fun acc n ->
                  if List.exists (fun n' -> n' == n) acc then acc else n :: acc)
                [] unflag
              |> List.rev
            in
            Some
              (Flag
                 {
                   flag_nodes = Array.of_list (List.map fst flags);
                   old_infos = Array.of_list (List.map snd flags);
                   unflag_nodes = Array.of_list unflag;
                   pnodes = Array.of_list pnodes;
                   old_children = Array.of_list old_children;
                   new_children = Array.of_list new_children;
                   rmv_leaf;
                   decision = Atomic.make Pending;
                   fholder = fh;
                   fcell = t.holder;
                   fstats = t.stats;
                 }))

  (* createNode (lines 117-121): a new internal node whose children are
     [n1] and [n2], unless one label prefixes the other — in which case
     the trie already (logically) contains a conflicting key and the
     caller must retry, after helping the update recorded in [info] if
     any. *)
  and create_node t ~gen n1 n2 info =
    let l1 = node_label n1 and l2 = node_label n2 in
    if L.is_prefix l1 l2 || L.is_prefix l2 l1 then begin
      (match info with
      | Some ((Flag _ | Snap _) as fi) -> ignore (help_other t fi)
      | _ -> ());
      None
    end
    else
      let lcp = L.lcp l1 l2 in
      if L.next_bit lcp l1 = 0 then Some (new_internal ~gen lcp n1 n2)
      else Some (new_internal ~gen lcp n2 n1)

  (* ---------------------------------------------------------------- *)
  (* Node copying (lines 26 and 52).  The copy must be taken *after* the
     node's info field was read: the flag CAS on that info value then
     guarantees the children did not change in between (Lemma 31), so
     the copy's children equal the original's at the child CAS. *)

  let copy_node ~gen = function
    | Leaf l -> new_leaf l.key
    | Internal i -> new_internal ~gen i.label (Atomic.get i.c0) (Atomic.get i.c1)

  (* ---------------------------------------------------------------- *)
  (* Update-side search: publication and copy-on-descent renewal.

     [run_own] wraps [help] on a descriptor this domain created: the
     descriptor is published in the domain's slot before the flagging
     phase and withdrawn after completion.  The SC ordering argument the
     snapshot relies on: a descriptor's Commit decision reads the holder
     *after* the slot publish, and a snapshot reads the slots *after* its
     holder CAS — so any descriptor that committed against the old
     generation is either visible in a slot (and helped to completion
     before the snapshot returns) or already fully applied.

     [search_renew] is the search of lines 76-85 for updates: it also
     copies every stale-generation internal node the path descends
     *through* into the current generation ([renew_child]) before using
     it, so the nodes an update flags-and-CASes-children-of always carry
     the live generation stamp and frozen views behind past snapshots
     are never structurally mutated.  (Terminal nodes that only get
     *marked* — e.g. an internal node an insert replaces — may be stale:
     marking touches only the info field, which frozen-view traversals
     ignore.)  A renewal is an ordinary two-flag descriptor (the stale
     node is marked forever, the parent's child pointer swings to the
     copy), so it validates like any update and aborts if a snapshot
     intervenes. *)

  let run_own t fi =
    let slot = my_slot t in
    Atomic.set slot (Some fi);
    let r = help fi in
    Atomic.set slot None;
    r

  let renew_child t (h : holder) p p_info c =
    match Atomic.get (node_info c) with
    | (Flag _ | Snap _) as fi -> ignore (help_other t fi)
    | Unflag _ as ci -> (
        (* The copy is taken after [ci] was read; the flag CAS on [ci]
           then certifies the children did not change in between (the
           same Lemma 31 discipline as an insert replacing an internal
           node). *)
        let copy = copy_node ~gen:h.epoch c in
        match
          new_flag2 t ~fh:h ~a:p ~a_old:p_info ~b:c ~b_old:ci ~old_child:c
            ~new_child:copy
        with
        | Some fi -> ignore (run_own t fi)
        | None -> ())

  (* [None] means the descent hit a stale node and (at most) renewed it:
     the caller restarts the attempt from a fresh holder read.  The
     root's label is a prefix of every key, so the loop body runs at
     least once and [p] is always an internal node on return. *)
  let search_renew t (h : holder) v =
    let rec go gp gp_info p p_label p_info d =
      let node = Atomic.get (child_cell p (L.next_bit_of_key p_label v)) in
      match node with
      | Internal i when L.is_prefix_of_key i.label v ->
          if i.gen = h.epoch then
            go (Some p) (Some p_info) node i.label (Atomic.get i.iinfo) (d + 1)
          else begin
            renew_child t h p p_info node;
            None
          end
      | _ ->
          let rmvd =
            match node with
            | Leaf l -> logically_removed (Atomic.get l.linfo)
            | Internal _ -> false
          in
          Some { gp; p; node; gp_info; p_info; rmvd; depth = d + 1 }
    in
    let root = h.hroot in
    go None None root (node_label root) (Atomic.get (node_info root)) 0

  (* ---------------------------------------------------------------- *)
  (* Updates.  Each update is a loop of attempts (the paper's "while
     true"); one attempt searches the current generation, decides
     whether the operation is a no-op, and otherwise builds a descriptor
     and runs it.  The [*_step] functions below are one attempt each;
     [update] is the loop around them. *)

  (* How one attempt ended. *)
  type outcome =
    | Applied (* our descriptor committed: the operation succeeded *)
    | Noop of string (* the operation is a no-op, for the reason named *)
    | Retry of Obs.Attribution.cause

  (* Run a descriptor this attempt built, or retry for [cause] if the
     newFlag family declined to build one (after helping a pending
     update, or because a node changed between two reads). *)
  let apply t fi ~cause =
    match fi with
    | Some fi when run_own t fi -> Applied
    | Some _ ->
        bump t.stats (fun s -> s.flag_failures);
        Retry Obs.Attribution.Flag_cas_lost
    | None -> Retry cause

  let sibling_index p v = 1 - L.next_bit_of_key (node_label p) v

  (* One insert attempt (lines 25-31) from its search [r] and the info
     value read from [r.node]: the new internal node over a copy of
     [r.node] and the new leaf ([None] to retry), then the descriptor
     that swings [r.p]'s child to it. *)
  let insert_node t h r v ~node_info_v =
    create_node t ~gen:h.epoch (copy_node ~gen:h.epoch r.node) (new_leaf v)
      (Some node_info_v)

  let insert_flag t h r new_node ~node_info_v =
    match r.node with
    | Internal _ ->
        (* Line 30: replacing an internal node permanently flags it,
           since it leaves the trie. *)
        new_flag2 t ~fh:h ~a:r.p ~a_old:r.p_info ~b:r.node ~b_old:node_info_v
          ~old_child:r.node ~new_child:new_node
    | Leaf _ ->
        new_flag1 t ~fh:h ~node:r.p ~old:r.p_info ~old_child:r.node
          ~new_child:new_node

  (* insert (lines 20-32) *)
  let insert_step t h v =
    match search_renew t h v with
    | None -> Retry Obs.Attribution.Conflict
    | Some r -> (
        descent t.stats (fun s -> s.descent_insert) r.depth;
        if key_in_trie r.node v r.rmvd then Noop "present"
        else
          let node_info_v = Atomic.get (node_info r.node) in
          match insert_node t h r v ~node_info_v with
          | None ->
              Retry
                (if flagged node_info_v then Obs.Attribution.Flagged_ancestor
                 else Obs.Attribution.Conflict)
          | Some new_node ->
              apply t ~cause:(retry_cause2 r.p_info node_info_v)
                (insert_flag t h r new_node ~node_info_v))

  (* The descriptor of one delete attempt (lines 37-40) from its search
     [r]; [None] to retry. *)
  let delete_descriptor t h r v =
    let node_sibling = Atomic.get (child_cell r.p (sibling_index r.p v)) in
    match (r.gp, r.gp_info) with
    | Some gp, Some gp_info ->
        (* Line 40: flag gp, mark p (p leaves the trie), and swing gp's
           child from p to node's sibling. *)
        new_flag2 t ~fh:h ~a:gp ~a_old:gp_info ~b:r.p ~b_old:r.p_info
          ~old_child:r.p ~new_child:node_sibling
    | _ ->
        (* gp = null can only be observed transiently: a real key's leaf
           always has an internal proper ancestor besides the root (the
           sentinel on its side shares that subtree).  Retry. *)
        None

  (* delete (lines 33-41) *)
  let delete_step t h v =
    match search_renew t h v with
    | None -> Retry Obs.Attribution.Conflict
    | Some r ->
        descent t.stats (fun s -> s.descent_delete) r.depth;
        if not (key_in_trie r.node v r.rmvd) then Noop "absent"
        else
          let cause =
            match r.gp_info with
            | Some gp_info -> retry_cause2 gp_info r.p_info
            | None -> Obs.Attribution.Conflict
          in
          apply t ~cause (delete_descriptor t h r v)

  (* replace (lines 42-71): the descriptor of one attempt (lines 49-70),
     from the searches for the removed key [vd] ([rd], which found it)
     and the added key [vi] ([ri], which did not), and the info value
     read from [ri.node]; [None] to retry. *)
  let replace_descriptor t h rd ri ~node_info_i vd vi =
    let node_sibling_d = Atomic.get (child_cell rd.p (sibling_index rd.p vd)) in
    let node_d = rd.node and node_i = ri.node in
    let pd = rd.p and pi = ri.p in
    let gen = h.epoch in
    match (rd.gp, rd.gp_info) with
    | Some gpd, Some gpd_info
      when node_i != node_d && node_i != pd && node_i != gpd && pi != pd -> (
        (* General case (lines 51-57): insert vi at pi, then delete vd's
           leaf by swinging gp_d — two child CASes, linearized at the
           first; noded is flagged as the logically-removed leaf in
           between. *)
        match
          create_node t ~gen (copy_node ~gen node_i) (new_leaf vi)
            (Some node_info_i)
        with
        | None -> None
        | Some new_node_i ->
            let flags = [ (gpd, gpd_info); (pd, rd.p_info); (pi, ri.p_info) ] in
            new_flag t ~fh:h
              ~flags:
                (match node_i with
                | Internal _ -> flags @ [ (node_i, node_info_i) ]
                | Leaf _ -> flags)
              ~unflag:[ gpd; pi ] ~pnodes:[ pi; gpd ]
              ~old_children:[ node_i; pd ]
              ~new_children:[ new_node_i; node_sibling_d ]
              ~rmv_leaf:(Some node_d))
    | _ when node_i == node_d ->
        (* Special case 1 (lines 58-59): both searches ended at vd's
           leaf; replace it by a fresh leaf containing vi. *)
        new_flag1 t ~fh:h ~node:pd ~old:rd.p_info ~old_child:node_i
          ~new_child:(new_leaf vi)
    | Some gpd, Some gpd_info when (node_i == pd && pi == gpd) || pi == pd -> (
        (* Special cases 2 and 3 (lines 60-64): the insertion point is pd
           itself (or shares it), and pd is removed by the deletion; one
           CAS replaces pd by a new node built from noded's sibling and
           the new leaf. *)
        let sib_info = Atomic.get (node_info node_sibling_d) in
        match create_node t ~gen node_sibling_d (new_leaf vi) (Some sib_info) with
        | None -> None
        | Some new_node_i ->
            new_flag2 t ~fh:h ~a:gpd ~a_old:gpd_info ~b:pd ~b_old:rd.p_info
              ~old_child:pd ~new_child:new_node_i)
    | Some gpd, Some gpd_info when node_i == gpd -> (
        (* Special case 4 (lines 65-70): the insertion replaces gp_d,
           which the deletion also restructures; one CAS replaces gp_d by
           a new two-level node built from the two siblings and the new
           leaf. *)
        let p_sibling_d = Atomic.get (child_cell gpd (sibling_index gpd vd)) in
        match create_node t ~gen node_sibling_d p_sibling_d None with
        | None -> None
        | Some new_child_i -> (
            match create_node t ~gen new_child_i (new_leaf vi) None with
            | None -> None
            | Some new_node_i ->
                new_flag t ~fh:h
                  ~flags:[ (pi, ri.p_info); (gpd, gpd_info); (pd, rd.p_info) ]
                  ~unflag:[ pi ] ~pnodes:[ pi ] ~old_children:[ node_i ]
                  ~new_children:[ new_node_i ] ~rmv_leaf:None))
    | _ -> None

  let replace_step t h vd vi =
    match search_renew t h vd with
    | None -> Retry Obs.Attribution.Conflict
    | Some rd -> (
        descent t.stats (fun s -> s.descent_replace) rd.depth;
        if not (key_in_trie rd.node vd rd.rmvd) then Noop "absent"
        else
          match search_renew t h vi with
          | None -> Retry Obs.Attribution.Conflict
          | Some ri ->
              descent t.stats (fun s -> s.descent_replace) ri.depth;
              if key_in_trie ri.node vi ri.rmvd then Noop "present"
              else
                let node_info_i = Atomic.get (node_info ri.node) in
                let fi = replace_descriptor t h rd ri ~node_info_i vd vi in
                (* Recover the cause from every info value this attempt
                   read; the newFlag family's [None] collapses
                   help-and-restart and read-read conflicts into one
                   constructor. *)
                let cause =
                  if
                    flagged node_info_i || flagged rd.p_info || flagged ri.p_info
                    || match rd.gp_info with Some i -> flagged i | None -> false
                  then Obs.Attribution.Flagged_ancestor
                  else Obs.Attribution.Conflict
                in
                apply t fi ~cause)

  (* The attempt loop of update [kind] on key [v] ([w]: the key a
     replace adds), with one flight-recorder span per attempt, retry
     attribution, and the contention backoff between attempts.  The
     recorded key of a replace is the removed one. *)
  let update t (kind : Obs.Trace.kind) v w =
    let stats = t.stats in
    let rec attempt bo n =
      bump stats (fun s -> s.attempts);
      let t0 = span_start () in
      let h = Atomic.get t.holder in
      match
        match kind with
        | Insert -> insert_step t h v
        | Delete -> delete_step t h v
        | _ -> replace_step t h v w
      with
      | Applied ->
          if t0 <> 0 then
            span_emit kind ~key:v ~ok:true ~attempt:n ~site:"applied" ~t0;
          Obs.Attribution.op_complete ();
          true
      | Noop site ->
          (* [site] says why the operation is a no-op *)
          if t0 <> 0 then span_emit kind ~key:v ~ok:false ~attempt:n ~site ~t0;
          Obs.Attribution.op_complete ();
          false
      | Retry cause ->
          (* [cause] names the CAS the attempt lost or the conflict it hit *)
          Obs.Attribution.mark cause ~attempt:n;
          if t0 <> 0 then
            span_emit kind ~key:v ~ok:false ~attempt:n
              ~site:(Obs.Attribution.cause_name cause)
              ~t0;
          attempt (retry_pause stats bo) (n + 1)
    in
    attempt Chaos.Backoff.init 1

  let insert t v = update t Insert v v
  let delete t v = update t Delete v v

  (* replace(v, v) is always false: the sequential specification
     requires [remove] present *and* [add] absent, which a single key
     cannot satisfy. *)
  let replace t vd vi = (not (L.key_equal vd vi)) && update t Replace vd vi

  (* ---------------------------------------------------------------- *)
  (* Traversals *)

  (* Walk of the non-sentinel leaves under [root], entering only the
     internal nodes whose label satisfies [enter].  Children are visited
     in label order, so keys come out ascending, or descending with
     [~descending:true].  With [live], logically removed leaves are
     skipped: the live trie's walk is weakly consistent like the Ctrie
     paper's snapshot-free iterator — each leaf is observed when the
     walk reaches it, so the result is a union of states the trie
     passed through, exact in quiescence.  Frozen views walk with
     [~live:false] (see [Snapshots]). *)
  let fold_tree ctx ~live ~descending ~enter root ~init ~f =
    let rec go acc = function
      | Leaf l ->
          if
            L.is_sentinel ctx l.key
            || (live && logically_removed (Atomic.get l.linfo))
          then acc
          else f acc l.key
      | Internal i ->
          if not (enter i.label) then acc
          else if descending then go (go acc (Atomic.get i.c1)) (Atomic.get i.c0)
          else go (go acc (Atomic.get i.c0)) (Atomic.get i.c1)
    in
    go init root

  let everywhere _ = true

  let fold_leaves t ~init ~f =
    fold_tree t.ctx ~live:true ~descending:false ~enter:everywhere (root t)
      ~init ~f

  let size t = fold_leaves t ~init:0 ~f:(fun acc _ -> acc + 1)

  (* ---------------------------------------------------------------- *)
  (* Snapshots.

     [snapshot t] atomically freezes the current generation and returns
     a view of it, in O(1) of the key count (O(#domains) for the slot
     scan):

       1. read the holder [h] and the root's info field; if a Flag or a
          Snap is pending, help it and retry;
       2. read the root's two children and build a fresh-generation root
          copy around them;
       3. CAS the root's info from the Unflag read in (1) to a [Snap]
          descriptor — the sandwich proves the children did not change
          since (2), because children are only CASed under a Flag and
          every unflag installs a physically fresh Unflag (no ABA);
       4. swing the holder to the new generation (helpers of the Snap do
          the same CAS, so this is idempotent) and release the old
          root's info field;
       5. help every descriptor published in the per-domain slots.

     Step 4's holder CAS is the linearization point.  Step 5 makes the
     frozen generation *physically* complete before [snapshot] returns:
     a descriptor that committed against [h] (its decision CAS saw the
     holder still equal to [h], hence ran before step 4) either already
     finished its child CASes or is still published in its owner's slot
     — the publish precedes the decision read, and our scan follows the
     holder CAS, so SC order leaves no third case.  Helping it completes
     those child CASes, which are the last writes the frozen subtree can
     ever receive: updates after step 4 renew every internal node they
     descend through into the new generation before CASing its
     children, and late straggler CASes of old descriptors fail by
     no-ABA.

     The frozen walk therefore ignores info fields entirely: every
     reachable non-sentinel leaf is an element of the frozen set.  A
     [logically_removed] mark on a shared leaf can only come from a
     replace that committed *after* the snapshot (pre-snapshot commits
     were physically completed in step 5, removing their victim from
     this structure; aborted attempts never set the mark), and such a
     leaf was present at the linearization point. *)

  type view = { vctx : L.ctx; vepoch : int; vroot : node }

  let snapshot t =
    let rec attempt () =
      let h = Atomic.get t.holder in
      let root = h.hroot in
      let root_info = node_info root in
      match Atomic.get root_info with
      | (Flag _ | Snap _) as fi ->
          ignore (help fi);
          attempt ()
      | Unflag _ as ri ->
          let epoch = h.epoch + 1 in
          let h' = { epoch; hroot = copy_node ~gen:epoch root } in
          let si = Snap { s_old = h; s_new = h'; s_cell = t.holder } in
          if Atomic.compare_and_set root_info ri si then begin
            (* If this holder CAS fails, a concurrent snapshot already
               superseded [h] — then [h] is frozen all the same and this
               call linearizes at that snapshot's swing. *)
            ignore (Atomic.compare_and_set t.holder h h');
            ignore (Atomic.compare_and_set root_info si (fresh_unflag ()));
            List.iter
              (fun slot ->
                match Atomic.get slot with
                | Some fi -> ignore (help fi)
                | None -> ())
              (Atomic.get t.slots);
            h
          end
          else attempt ()
    in
    let h = attempt () in
    { vctx = t.ctx; vepoch = h.epoch; vroot = h.hroot }

  module View = struct
    type t = view

    let epoch v = v.vepoch

    let fold v ~init ~f =
      fold_tree v.vctx ~live:false ~descending:false ~enter:everywhere v.vroot
        ~init ~f

    let size v = fold v ~init:0 ~f:(fun acc _ -> acc + 1)

    let to_seq v =
      let rec walk node tail () =
        match node with
        | Leaf l ->
            if L.is_sentinel v.vctx l.key then tail () else Seq.Cons (l.key, tail)
        | Internal i ->
            walk (Atomic.get i.c0) (fun () -> walk (Atomic.get i.c1) tail ()) ()
      in
      fun () -> walk v.vroot (fun () -> Seq.Nil) ()
  end

  (* ---------------------------------------------------------------- *)
  (* Counters *)

  let stats_snapshot t : snapshot option =
    match t.stats with
    | None -> None
    | Some s ->
        Some
          {
            attempts = Obs.Counter.sum s.attempts;
            helps_given = Obs.Counter.sum s.helps_given;
            helps_received = Obs.Counter.sum s.helps_received;
            flag_failures = Obs.Counter.sum s.flag_failures;
            backtracks = Obs.Counter.sum s.backtracks;
            backoff_waits = Obs.Counter.sum s.backoff_waits;
            descent_nodes_find = Obs.Counter.sum s.descent_find;
            descent_nodes_insert = Obs.Counter.sum s.descent_insert;
            descent_nodes_delete = Obs.Counter.sum s.descent_delete;
            descent_nodes_replace = Obs.Counter.sum s.descent_replace;
            descent_searches = Obs.Counter.sum s.descent_searches;
          }

  let descent_stats t =
    match stats_snapshot t with
    | None -> None
    | Some s ->
        Some
          [
            ("descent_nodes_find", s.descent_nodes_find);
            ("descent_nodes_insert", s.descent_nodes_insert);
            ("descent_nodes_delete", s.descent_nodes_delete);
            ("descent_nodes_replace", s.descent_nodes_replace);
            ("descent_searches", s.descent_searches);
          ]

  let descent_summary t =
    match t.stats with
    | None -> None
    | Some s -> Some (Obs.Histogram.snapshot s.descent_depth)

  (* ---------------------------------------------------------------- *)
  (* Structural invariants of the Patricia trie (paper Invariant 7 and
     the sentinel properties), plus the quiescence conditions the chaos
     suite audits after every fault-injection scenario: no residual flags
     on any reachable node (every descriptor must have been completed or
     backed out, including on behalf of stalled processes) and strictly
     ascending leaf keys (no duplicated or misplaced element).  Only
     meaningful in quiescent states. *)

  (* Strict lexicographic order on bit strings — the order of an
     in-order walk — built from the label arithmetic alone. *)
  let lex_lt a b =
    if L.is_prefix a b then not (L.is_prefix b a)
    else (not (L.is_prefix b a)) && L.next_bit (L.lcp a b) a = 0

  let check_invariants t =
    let ctx = t.ctx in
    let pp = L.pp ctx in
    let errors = ref [] in
    let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
    let last = ref None and lo = ref false and hi = ref false in
    let rec go lab node =
      (match Atomic.get (node_info node) with
      | Unflag _ -> ()
      | Snap _ -> err "residual snapshot descriptor on reachable node"
      | Flag _ ->
          err "residual flag on reachable %s %a"
            (match node with Leaf _ -> "leaf" | Internal _ -> "internal")
            pp (node_label node));
      match node with
      | Leaf l ->
          let kl = L.leaf_label l.key in
          if not (L.is_prefix lab kl) then
            err "leaf %a not under its path label %a" pp kl pp lab;
          (match !last with
          | Some prev when not (lex_lt prev kl) ->
              err "leaf %a out of order (previous leaf %a)" pp kl pp prev
          | _ -> ());
          last := Some kl;
          if L.key_equal l.key (L.sentinel_lo ctx) then lo := true;
          if L.key_equal l.key (L.sentinel_hi ctx) then hi := true
      | Internal i ->
          if not (L.is_prefix lab i.label) then
            err "internal label %a does not extend path %a" pp i.label pp lab;
          let c0 = Atomic.get i.c0 and c1 = Atomic.get i.c1 in
          let check_child dir c =
            let expect = L.extend i.label dir in
            let cl = node_label c in
            if not (L.is_prefix expect cl) then
              err "child %d of %a has label %a (expected prefix %a)" dir pp
                i.label pp cl pp expect;
            if L.length ctx cl <= L.length ctx i.label then
              err "child of %a has shorter label %a" pp i.label pp cl
          in
          check_child 0 c0;
          check_child 1 c1;
          go (L.extend i.label 0) c0;
          go (L.extend i.label 1) c1
    in
    go (L.empty ctx) (root t);
    (* The two sentinels must always be in the trie (Lemma 62). *)
    if not !lo then err "missing sentinel %a" pp (L.leaf_label (L.sentinel_lo ctx));
    if not !hi then err "missing sentinel %a" pp (L.leaf_label (L.sentinel_hi ctx));
    match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

  (* ---------------------------------------------------------------- *)
  (* Shape census (Obs.Shape): weakly-consistent walk like
     [fold_leaves], exact in quiescence.  Per-node words, 64-bit layout,
     before the label or key itself:

       internal:  Internal block 6 (header, label, c0, c1, iinfo, gen)
                  + 2 child Atomics 4 + iinfo Atomic 2 + Unflag 2   = 14
       leaf:      Leaf block 3 (header, key, linfo)
                  + linfo Atomic 2 + Unflag 2                       = 7

     (an Atomic.t and an Unflag are one-field blocks), plus
     [L.label_words] / [L.key_words], which are 0 for immediates.
     Shared labels and keys (the root's empty label, the sentinels) are
     charged once per node.  [measured_words] cross-checks the estimate
     with [Obj.reachable_words] from the root, which also charges shared
     or flag-retained blocks the estimate ignores; in quiescence the
     two agree exactly. *)
  let internal_words = 14
  let leaf_words = 7

  let census ~structure t =
    let a = Obs.Shape.acc ~structure in
    let rec go depth node =
      match node with
      | Leaf l ->
          let sentinel = L.is_sentinel t.ctx l.key in
          let keys =
            if sentinel || logically_removed (Atomic.get l.linfo) then 0 else 1
          in
          Obs.Shape.leaf a ~depth ~keys ~sentinel
            ~words:(leaf_words + L.key_words l.key)
      | Internal i ->
          Obs.Shape.internal a ~depth ~prefix_len:(L.length t.ctx i.label)
            ~children:2
            ~words:(internal_words + L.label_words i.label);
          go (depth + 1) (Atomic.get i.c0);
          go (depth + 1) (Atomic.get i.c1)
    in
    let root = root t in
    go 0 root;
    let measured_words = Obj.reachable_words (Obj.repr root) in
    Some (Obs.Shape.finish ~measured_words a)

  (* ---------------------------------------------------------------- *)
  (* Test-only access to the coordination machinery, used to exercise
     the helping paths deterministically (e.g. a process that "crashes"
     after flagging, which others must complete — paper Section IV,
     part 4). *)

  module For_testing = struct
    type descriptor = info

    let help = help

    (* The update-side search of one attempt, repeated past renewals of
       stale nodes (each renewal or help makes progress). *)
    let rec search t v =
      let h = Atomic.get t.holder in
      match search_renew t h v with Some r -> (h, r) | None -> search t v

    (* Run one insert attempt up to and including descriptor creation,
       but do not apply it.  Returns None if the key is present or the
       attempt would have restarted. *)
    let prepare_insert t v =
      let h, r = search t v in
      if key_in_trie r.node v r.rmvd then None
      else
        let node_info_v = Atomic.get (node_info r.node) in
        match insert_node t h r v ~node_info_v with
        | None -> None
        | Some new_node -> insert_flag t h r new_node ~node_info_v

    (* Run one delete attempt up to descriptor creation without applying
       it.  Returns None if the key is absent or the attempt would have
       restarted. *)
    let prepare_delete t v =
      let h, r = search t v in
      if not (key_in_trie r.node v r.rmvd) then None
      else delete_descriptor t h r v

    (* Perform only the flagging phase of a descriptor, simulating a
       process that dies between flagging and the child CAS. *)
    let flag_only fi =
      match fi with
      | Flag f -> flag_phase fi f
      | Unflag _ | Snap _ -> invalid_arg "flag_only: not a Flag descriptor"

    let set_help_hook h = help_counter_hook := h

    (* Count of nodes currently flagged along the search path of [v]. *)
    let flags_on_path t v =
      let is_flag a = match Atomic.get a with Flag _ -> 1 | _ -> 0 in
      let rec go acc = function
        | Leaf l -> acc + is_flag l.linfo
        | Internal i as n ->
            let acc = acc + is_flag i.iinfo in
            if L.is_prefix_of_key i.label v then
              go acc (Atomic.get (child_cell n (L.next_bit_of_key i.label v)))
            else acc
      in
      go 0 (root t)
  end
end
