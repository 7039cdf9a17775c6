(* Non-blocking Patricia trie over variable-length keys — the extension
   described in the paper's conclusion (Section VI): {!Patricia_gen.Make}
   instantiated with {!Bitkey.Bitstr} keys and labels of unbounded
   length.  Keys are stored under the 0->01 / 1->10 / $->11 encoding,
   which makes distinct keys mutually prefix-free and bounds them
   strictly between the sentinel leaves 00 and 111.

   As the paper notes, with unbounded keys searches remain non-blocking
   (they terminate: the trie's height at any moment is bounded by the
   longest key currently stored) but are no longer wait-free, since
   concurrent insertions of ever-longer keys can extend a search path. *)

module B = Bitkey.Bitstr

module Bitstr_label = struct
  type key = B.t
  type label = B.t
  type ctx = unit

  let leaf_label k = k
  let next_bit_of_key = B.next_bit
  let is_prefix_of_key = B.is_proper_prefix
  let next_bit = B.next_bit
  let lcp = B.lcp
  let is_prefix = B.is_prefix
  let compare = B.compare
  let extend = B.extend
  let length () = B.length
  let empty () = B.empty
  let pp () = B.pp
  let sentinel_lo () = B.sentinel_lo
  let sentinel_hi () = B.sentinel_hi
  let is_sentinel () k = B.equal k B.sentinel_lo || B.equal k B.sentinel_hi
  let key_equal = B.equal

  (* A stable per-key tag for the trace, not a reversible encoding. *)
  let trace_key = Hashtbl.hash

  (* A {!Bitkey.Bitstr.t} record (3 words) plus its backing string block
     (header + padded data words). *)
  let label_words b =
    let bytes = (B.length b + 7) / 8 in
    3 + 1 + ((bytes + 8) / 8)

  let key_words = label_words
end

module G = Patricia_gen.Make (Bitstr_label)

type t = G.t

let name = "PAT-VLK"
let create ?(record_stats = false) () = G.create () ~record_stats

(* ------------------------------------------------------------------ *)
(* Operations over raw encoded keys *)

let check_key v =
  if
    B.is_prefix v B.sentinel_lo
    || B.is_prefix B.sentinel_lo v
    || B.is_prefix v B.sentinel_hi
    || B.is_prefix B.sentinel_hi v
  then invalid_arg "Patricia_vlk: key collides with a sentinel"

let member_key t v =
  check_key v;
  G.member t v

let insert_key t v =
  check_key v;
  G.insert t v

let delete_key t v =
  check_key v;
  G.delete t v

let replace_key t vd vi =
  check_key vd;
  check_key vi;
  G.replace t vd vi

(* ------------------------------------------------------------------ *)
(* Byte-string front end (one byte = 8 binary digits) *)

let insert t s = insert_key t (B.encode_bytes s)
let delete t s = delete_key t (B.encode_bytes s)
let member t s = member_key t (B.encode_bytes s)
let replace t ~remove ~add = replace_key t (B.encode_bytes remove) (B.encode_bytes add)

let to_list t =
  List.rev (G.fold_leaves t ~init:[] ~f:(fun acc k -> B.decode_bytes k :: acc))

let size = G.size

type view = G.view

let snapshot = G.snapshot

module View = struct
  type t = view

  let epoch = G.View.epoch
  let fold v ~init ~f = G.View.fold v ~init ~f:(fun acc k -> f acc (B.decode_bytes k))
  let to_list v = List.rev (fold v ~init:[] ~f:(fun acc s -> s :: acc))
  let size = G.View.size
end

let check_invariants = G.check_invariants
let census t = G.census ~structure:name t
let descent_stats = G.descent_stats
let descent_summary = G.descent_summary
