(** BGP message types (RFC 4271 §4) and notification error codes. *)

type open_msg = {
  version : int;
  my_as : int;
  hold_time : int;  (** seconds *)
  bgp_id : Ipv4.t;
}

type update = {
  withdrawn : Prefix.t list;
  attrs : Attr.t option;  (** [None] iff [nlri] is empty *)
  nlri : Prefix.t list;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_msg
  | Update of update
  | Notification of notification
  | Keepalive

val keepalive : t
val update : ?withdrawn:Prefix.t list -> ?attrs:Attr.t option -> ?nlri:Prefix.t list -> unit -> t
val kind : t -> string
val pp : Format.formatter -> t -> unit

(** Notification error codes (RFC 4271 §6). *)
module Error : sig
  val message_header : int
  val open_message : int
  val update_message : int
  val hold_timer_expired : int
  val fsm_error : int
  val cease : int

  (* Message-header subcodes *)
  val bad_marker : int
  val bad_length : int
  val bad_type : int

  (* OPEN subcodes *)
  val unsupported_version : int
  val bad_peer_as : int
  val bad_bgp_id : int
  val unacceptable_hold_time : int

  (* UPDATE subcodes *)
  val malformed_attribute_list : int
  val unrecognized_wellknown : int
  val missing_wellknown : int
  val attribute_flags : int
  val attribute_length : int
  val invalid_origin : int
  val invalid_next_hop : int
  val invalid_network_field : int
  val malformed_as_path : int

  val to_string : int -> int -> string
end
