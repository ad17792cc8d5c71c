(** Grammar-based fuzzing combinators.

    A ['a t] is a production that samples one valid derivation.  Used
    to cheaply generate large numbers of structurally valid inputs
    (paper insight (iii)); the concolic engine supplies the interesting
    field values, the grammar supplies the surrounding structure. *)

type 'a t

val run : 'a t -> Netsim.Rng.t -> 'a

val pure : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val both : 'a t -> 'b t -> ('a * 'b) t

val range : int -> int -> int t
(** Uniform in [\[lo, hi\]]. *)

val choose : 'a t list -> 'a t
(** Uniform choice of production.  @raise Invalid_argument on []. *)

val weighted : (int * 'a t) list -> 'a t
(** Choice by positive integer weight. *)

val opt : float -> 'a t -> 'a option t
(** [Some] with the given probability. *)

val list_of : min:int -> max:int -> 'a t -> 'a list t
val shuffle_of : 'a list -> 'a list t
val one_of : 'a list -> 'a t
(** Uniform element.  @raise Invalid_argument on []. *)

val chance : float -> bool t
