(** Routing information bases.

    Persistent: every mutation returns a new value, so a checkpoint of a
    router's routing state is a single pointer copy. *)

type source = {
  peer_addr : Ipv4.t;  (** 0.0.0.0 for locally-originated networks *)
  peer_as : int;
  peer_bgp_id : Ipv4.t;
  ebgp : bool;
  igp_metric : int;
}

val local_source : source
(** Source for locally-originated (network statement) routes. *)

type route = { attrs : Attr.t; source : source }

val is_local : route -> bool

type t = private {
  cands : route Ipv4.Map.t Prefix_trie.t;
      (** The Adj-RIB-In, by prefix: the candidate routes of each
          prefix, keyed by advertising peer.  What makes {!candidates}
          — and hence incremental re-decision — one trie walk; the
          per-peer views are derived from it. *)
  loc : route Prefix_trie.t;  (** the Loc-RIB: selected best per prefix *)
  adj_out : Attr.t Prefix.Map.t Ipv4.Map.t;  (** last advertised, per peer *)
}

val empty : t

(* --- Adj-RIB-In --- *)

val adj_in_set : Ipv4.t -> Prefix.t -> route -> t -> t
val adj_in_del : Ipv4.t -> Prefix.t -> t -> t
val adj_in_get : Ipv4.t -> Prefix.t -> t -> route option

val adj_in_update : Ipv4.t -> Prefix.t -> route option -> t -> t * bool
(** [adj_in_update peer prefix route t] sets ([Some]) or deletes
    ([None]) the peer's entry and reports whether the prefix's
    candidate set actually changed.  [false] means the decision process
    can skip the prefix entirely: re-announcements importing to an
    identical route and withdrawals of never-advertised prefixes are
    no-ops. *)

val drop_peer : Ipv4.t -> t -> t
(** Remove a peer's Adj-RIB-In and Adj-RIB-Out (session down): one walk
    of the candidate trie.  A peer with neither leaves [t] as it was. *)

val candidates : Prefix.t -> t -> route list
(** All Adj-RIB-In entries for the prefix, over all peers.  One trie
    walk plus a fold over the (typically small) per-prefix peer map —
    independent of table size and peer count. *)

val prefixes_from_peer : Ipv4.t -> t -> Prefix.t list
(** The prefixes the peer advertised, in ascending order: one walk of
    the candidate trie. *)

(* --- Loc-RIB --- *)

val loc_set : Prefix.t -> route -> t -> t
val loc_del : Prefix.t -> t -> t
val loc_get : Prefix.t -> t -> route option
val loc_prefixes : t -> Prefix.t list
val loc_cardinal : t -> int

val changed_prefixes : t -> t -> Prefix.t list
(** [changed_prefixes old new]: the prefixes whose Loc-RIB entry or
    candidate set is not physically equal ([==]) in the two RIBs, in
    prefix order.  Both tables are compared by {!Prefix_trie.fold_diff},
    which skips what two versions of a table share, so the cost follows
    the changed prefixes, not the table size. *)

val loc_event : Prefix.t -> route option -> string
(** The detail of a ["loc-rib"] trace event, one format for every
    speaker implementation: ["<prefix> via <peer>"] for a new best
    route (peer [0.0.0.0] when it is local), ["<prefix> unreachable"]
    when the prefix left the Loc-RIB. *)

val parse_loc_event : string -> (string * string) option
(** Inverse of {!loc_event}: [(prefix, state)] with [state] either
    ["via <peer>"] or ["unreachable"]; [None] for a detail of any other
    shape. *)

(* --- Adj-RIB-Out --- *)

val adj_out_set : Ipv4.t -> Prefix.t -> Attr.t -> t -> t
val adj_out_del : Ipv4.t -> Prefix.t -> t -> t
val adj_out_get : Ipv4.t -> Prefix.t -> t -> Attr.t option

val total_adj_in : t -> int
