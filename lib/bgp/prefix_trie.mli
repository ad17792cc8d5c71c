(** Persistent path-compressed binary trie keyed by prefixes.

    Supports exact lookup, longest-prefix match, and enumeration of
    entries subsumed by a covering prefix.  Persistence makes router
    forwarding state checkpointable in O(1).

    Paths are compressed (PATRICIA-style): every node holds a bound
    prefix or branches two non-empty subtrees, so an operation visits
    at most one node per bound prefix on its path — about log2 n nodes
    for n spread-out prefixes, and never more than 33.  The shape is
    canonical: tries with equal bindings are structurally equal ([=]),
    whatever the order of the insertions and removals that built
    them. *)

type 'a t

val empty : 'a t
val cardinal : 'a t -> int
val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Replaces an existing binding for the exact prefix. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Returns the trie itself ([==]) when the prefix is not bound. *)

val find : Prefix.t -> 'a t -> 'a option
(** Exact match. *)

val mem : Prefix.t -> 'a t -> bool

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** The most specific stored prefix containing the address. *)

val covered : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** All bindings whose prefix is equal to or more specific than the
    argument, in prefix order. *)

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In prefix order (ascending {!Prefix.compare}). *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** In prefix order. *)

val fold_diff :
  (Prefix.t -> 'a option -> 'a option -> 'b -> 'b) -> 'a t -> 'a t -> 'b -> 'b
(** [fold_diff f a b acc] calls [f prefix (find prefix a) (find prefix b)]
    for every prefix whose two bindings are not physically equal ([==]),
    in prefix order.  It skips every subtree the two tries share, so on
    two versions of one trie it costs O(changed bindings x depth). *)

val of_list : (Prefix.t * 'a) list -> 'a t
