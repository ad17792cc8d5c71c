(** Closed integer intervals for bounds propagation. *)

type t = { lo : int; hi : int }

val make : int -> int -> t
(** @raise Invalid_argument if [lo > hi]. *)

val point : int -> t
val of_var : Expr.var -> t
val is_point : t -> bool
val width : t -> int
val mem : int -> t -> bool

val inter : t -> t -> t option
(** [None] when disjoint. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val band : t -> t -> t
(** Conservative: exact for non-negative point masks, otherwise the
    full [0, max] envelope. *)
