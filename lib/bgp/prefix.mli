(** CIDR prefixes.

    Values are canonical: host bits below the mask are zero. *)

type t = private { addr : Ipv4.t; len : int }

val make : Ipv4.t -> int -> t
(** Canonicalizes [addr] by masking.  @raise Invalid_argument if
    [len] is outside [\[0, 32\]]. *)

val addr : t -> Ipv4.t
val len : t -> int

val of_string : string -> (t, string) result
(** ["10.0.0.0/8"]; the address part must already be canonical. *)

val of_string_exn : string -> t
val to_string : t -> string

val mem : Ipv4.t -> t -> bool
(** [mem a p] — does [a] fall inside [p]? *)

val subsumes : t -> t -> bool
(** [subsumes p q] — is [q] equal to or more specific than [p]
    (i.e. [q]'s address block is contained in [p]'s)? *)

val compare : t -> t -> int
(** Total order: by address, then by length (shorter first). *)

val equal : t -> t -> bool

val is_martian : t -> bool
(** Covers martian address space, or is a /0 .. /7 "bogus netmask"
    announcement of non-default space, or more specific than /24 in the
    global table model. *)

val split : t -> (t * t) option
(** The two /n+1 halves, or [None] for a /32. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
