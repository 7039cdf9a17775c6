(** Bit-string keys for Patricia tries.

    The paper stores sets of [l]-bit binary strings.  This module
    represents such a string [b1 b2 ... bl] ([b1] most significant) as
    the integer with that binary expansion over a fixed [width], and
    provides the prefix arithmetic the trie is built on, plus the two
    key encodings the paper discusses: Morton interleaving of 2-D points
    (Section I) and the [0 -> 01, 1 -> 10, $ -> 11] encoding of
    variable-length strings (Section VI). *)

val max_width : int
(** Maximum supported key width, 62 (OCaml's immediate-int range). *)

val bit_length : int -> int
(** Number of bits needed to represent a non-negative int;
    [bit_length 0 = 0].  @raise Invalid_argument on negatives. *)

val bit : width:int -> int -> int -> int
(** [bit ~width k i] is the [i]-th bit of the width-bit string for [k],
    1-indexed from the most significant bit — the paper's bit numbering.
    @raise Invalid_argument unless [1 <= i <= width]. *)

val popcount : int -> int
(** Number of set bits. *)

(** Prefixes of keys: the node labels of a Patricia trie. *)
module Label : sig
  type t = { bits : int; len : int }
  (** The first [len] bits of some key, right-aligned in [bits]. *)

  val empty : t
  (** The empty string ε — the label of the root. *)

  val length : t -> int

  val of_key : width:int -> int -> t
  (** The full-length label of a key (the label of its leaf). *)

  val prefix : t -> int -> t
  (** [prefix t n] is the first [n] bits of [t].
      @raise Invalid_argument unless [0 <= n <= length t]. *)

  val is_prefix : t -> t -> bool
  (** [is_prefix a b]: is [a]'s bit string a prefix of [b]'s? *)

  val is_proper_prefix : t -> t -> bool

  val is_prefix_of_key : width:int -> t -> int -> bool
  (** Specialization of {!is_prefix} to a full key, used on the trie's
      hot search path (line 79 of the paper's pseudocode). *)

  val next_bit_of_key : width:int -> t -> int -> int
  (** The bit of the key immediately after the prefix: the child
      direction at a node with this label (line 82).
      @raise Invalid_argument if the label is full-length. *)

  val next_bit : t -> t -> int
  (** [next_bit t b] is the bit of label [b] just after prefix [t].
      @raise Invalid_argument unless [t] is a proper prefix of [b]. *)

  val lcp : t -> t -> t
  (** Longest common prefix — the label of a freshly created internal
      node (line 121). *)

  val extend : t -> int -> t
  (** Append one bit.  @raise Invalid_argument unless the bit is 0/1. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** A total order on labels (length, then bits), used to sort the
      nodes an update flags so that flagging is deadlock-free
      (line 115). *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Labels packed into one immediate int, for the concurrent trie's
    nodes.  A label of length [len] over width-[width] keys is
    [((bits lsl 1) lor 1) lsl (width - len)]: the prefix left-aligned
    one bit above its place in the key, then a terminator bit.  The
    terminator lines up with the key's next bit after the prefix, so the
    search primitives are one mask each, and all operations but
    {!empty}, {!length} and the conversions ignore the width.  Widths up
    to {!max_width} fit; at width 62 labels use the sign bit. *)
module Packed : sig
  type t = int

  val empty : width:int -> t
  (** The empty label ε, the root's. *)

  val of_key : int -> t
  (** The full-length label of a key (the label of its leaf). *)

  val of_label : width:int -> Label.t -> t
  val to_label : width:int -> t -> Label.t
  val length : width:int -> t -> int

  val lo : t -> int
  (** The smallest key the label prefixes. *)

  val hi : t -> int
  (** The largest key the label prefixes. *)

  val is_prefix_of_key : t -> int -> bool
  (** As {!Label.is_prefix_of_key}: one xor and one mask. *)

  val next_bit_of_key : t -> int -> int
  (** As {!Label.next_bit_of_key}, for a label shorter than the key: the
      key bit under the label's terminator. *)

  val next_bit : t -> t -> int
  (** As {!Label.next_bit}, for [t] a proper prefix of [b]. *)

  val is_prefix : t -> t -> bool
  val lcp : t -> t -> t

  val extend : t -> int -> t
  (** @raise Invalid_argument if the bit is not 0/1 or the label is
      full-length. *)

  val compare : t -> t -> int
  (** Any total order on labels (here the integer order); updates flag
      nodes in this order. *)

  val pp : width:int -> Format.formatter -> t -> unit
end

val interleave2 : coord_bits:int -> int -> int -> int
(** [interleave2 ~coord_bits x y] is the Morton (Z-order) key whose bits
    alternate between those of [x] and [y]; under this encoding the trie
    behaves like a quadtree and [replace] moves a point atomically.
    @raise Invalid_argument if a coordinate needs more than [coord_bits]
    bits or [2 * coord_bits > max_width]. *)

val deinterleave2 : coord_bits:int -> int -> int * int
(** Inverse of {!interleave2}. *)

val string_width : max_len:int -> int
(** Key width needed to store binary strings of length up to [max_len]
    under the Section-VI encoding: [2 * max_len + 2]. *)

val encode_string : max_len:int -> string -> int
(** Encode a string over ['0']/['1'] as [0 -> 01, 1 -> 10] followed by a
    [11] terminator, zero-padded to [string_width ~max_len] bits.  The
    encoding is injective and every encoded key is strictly between the
    all-zeros and all-ones sentinels.
    @raise Invalid_argument on non-binary characters or overlong input. *)

val decode_string : max_len:int -> int -> string
(** Inverse of {!encode_string}.
    @raise Invalid_argument if the key is not a valid encoding. *)

(** Variable-length bit strings (Section VI keys); see {!module:Bitstr}. *)
module Bitstr = Bitstr
