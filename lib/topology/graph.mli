(** AS-level topology graphs with business relationships.

    Each node models one autonomous system running one BGP router
    (node ids double as simulator node ids). *)

type rel =
  | Customer_provider  (** the edge's [a] end is the customer *)
  | Peer_peer

type edge = { a : int; b : int; rel : rel }

type tier = Tier1 | Transit | Stub

type t = {
  nodes : (int * tier) list;  (** sorted by node id *)
  edges : edge list;
}

val make : nodes:(int * tier) list -> edges:edge list -> t
(** Sorts and validates: endpoints exist, no self-loops, no duplicate
    (unordered) pairs.  @raise Invalid_argument on violation. *)

val size : t -> int
val node_ids : t -> int list
val tier_of : t -> int -> tier

val providers_of : t -> int -> int list
(** Nodes this node buys transit from. *)

val customers_of : t -> int -> int list
val peers_of : t -> int -> int list
val neighbors : t -> int -> int list

(** Relationship of [neighbor] as seen from [self]. *)
type role = Customer | Provider | Peer

val role_of : t -> self:int -> neighbor:int -> role option
val role_to_string : role -> string

val induced : t -> int list -> t
(** Subgraph on the given node set: node ids, tiers and surviving edges
    are preserved (so per-node identities — ASN, prefix — are stable
    under pruning).  Duplicates in the list are ignored.  The result
    may be disconnected.
    @raise Invalid_argument on an empty set or an unknown node. *)

val is_connected : t -> bool
val tier_to_string : tier -> string
