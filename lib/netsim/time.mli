(** Simulated time.

    Time is a count of microseconds since the start of the simulation,
    represented as a non-negative [int].  Durations ([span]) use the same
    unit. *)

type t = private int

type span = int
(** A duration in microseconds. *)

val zero : t

val of_us : int -> t
(** [of_us n] is the instant [n] microseconds after the origin.
    @raise Invalid_argument if [n < 0]. *)

val to_us : t -> int
val of_ms : int -> t
val of_sec : float -> t
val to_sec : t -> float

val span_ms : int -> span
val span_sec : float -> span

val add : t -> span -> t
(** [add t d] is [t + d], clipped at [zero] if [d] is negative. *)

val diff : t -> t -> span
(** [diff a b] is [a - b] in microseconds (may be negative). *)

val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val pp : Format.formatter -> t -> unit
