(** AS_PATH attribute values. *)

type segment =
  | Seq of int list  (** AS_SEQUENCE: ordered *)
  | Set of int list  (** AS_SET: unordered, counts as one hop *)

type t = segment list
(** First segment is nearest; the origin AS is the last ASN of the last
    segment. *)

val empty : t

val length : t -> int
(** Decision-process length: each ASN in a [Seq] counts 1, each [Set]
    counts 1 (RFC 4271 9.1.2.2). *)

val prepend : int -> t -> t
(** Prepend one ASN, merging into a leading [Seq] (creating one if
    needed, or if the leading segment is full at 255 ASNs). *)

val prepend_n : int -> int -> t -> t
(** [prepend_n asn k path] prepends [asn] [k] times. *)

val contains : int -> t -> bool
(** Loop detection. *)

val origin_as : t -> int option
(** The rightmost ASN of the rightmost [Seq]; [None] for empty paths or
    paths ending in an [Set]. *)

val neighbor_as : t -> int option
(** The leftmost ASN — the neighboring AS the route was learned from. *)

val as_list : t -> int list
(** All ASNs in order of appearance (sets flattened). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
