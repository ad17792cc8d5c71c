(** Concolic values: a concrete integer paired with its symbolic
    shadow.

    Instrumented code computes on these instead of plain ints — the
    concrete half drives real execution, the symbolic half accumulates
    the expression that the value denotes in terms of the symbolic
    inputs.  Mirrors source-level instrumentation of BIRD in the
    paper's prototype. *)

type t = { conc : int; sym : Expr.t }

val concrete : int -> t
(** A value with no symbolic content. *)

val of_var : Expr.var -> int -> t
(** A symbolic input with its current concrete value. *)

val is_symbolic : t -> bool
val to_int : t -> int
val truthy : t -> bool

(* Arithmetic *)
val add : t -> t -> t
val band : t -> t -> t

(* Comparisons (results are 0/1 booleans) *)
val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

(* Boolean connectives *)
val conj : t -> t -> t
val disj : t -> t -> t

val eq_const : t -> int -> t
val in_range : t -> lo:int -> hi:int -> t
