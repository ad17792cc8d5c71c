(** Deterministic, splittable pseudo-random number generator.

    Based on splitmix64.  Every simulation component receives its own
    [Rng.t] split from a single root seed, so adding a component never
    perturbs the random stream of another — runs are bit-reproducible. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)
