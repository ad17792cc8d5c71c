(** BGP communities (RFC 1997). *)

type t = private int
(** 32-bit value, conventionally displayed as [asn:tag]. *)

val make : int -> int -> t
(** [make asn tag], both 16-bit.  @raise Invalid_argument otherwise. *)

val of_int32_exn : int -> t
val to_int : t -> int
val asn : t -> int
val tag : t -> int

val no_export : t
(** 0xFFFFFF01 — do not advertise outside the AS. *)

val no_advertise : t
(** 0xFFFFFF02 — do not advertise to any peer. *)

val of_string : string -> (t, string) result
(** ["65001:100"], or the well-known names ["no-export"],
    ["no-advertise"]. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
