(** BGP path attributes (RFC 4271 §5). *)

type origin = Igp | Egp | Incomplete

val origin_code : origin -> int
(** 0 / 1 / 2 — also the decision-process preference order (lower wins). *)

val origin_of_code : int -> origin option
val origin_to_string : origin -> string

type unknown = {
  u_type : int;  (** attribute type code *)
  u_flags : int;  (** attribute flags byte *)
  u_value : string;  (** raw value bytes *)
}
(** Unrecognized optional attribute, carried through if transitive. *)

type t = {
  origin : origin;
  as_path : As_path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  atomic_aggregate : bool;
  aggregator : (int * Ipv4.t) option;
  communities : Community.t list;
  unknown : unknown list;
}

val make :
  ?origin:origin ->
  ?as_path:As_path.t ->
  ?med:int option ->
  ?local_pref:int option ->
  ?atomic_aggregate:bool ->
  ?aggregator:(int * Ipv4.t) option ->
  ?communities:Community.t list ->
  ?unknown:unknown list ->
  next_hop:Ipv4.t ->
  unit ->
  t

val with_local_pref : int -> t -> t
val with_med : int option -> t -> t
val add_community : Community.t -> t -> t
val remove_community : Community.t -> t -> t
val has_community : Community.t -> t -> bool
val effective_local_pref : t -> int
(** [local_pref] or the default of 100. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(* Attribute type codes *)
val code_origin : int
val code_as_path : int
val code_next_hop : int
val code_med : int
val code_local_pref : int
val code_atomic_aggregate : int
val code_aggregator : int
val code_communities : int

(* Attribute flag bits *)
val flag_optional : int
val flag_transitive : int
val flag_partial : int
val flag_extended : int
