(** Symbolic expressions.

    Integer-valued; booleans are 0/1.  Variables carry a bounded domain
    (message fields have natural bit-widths), which is what makes the
    solver's interval reasoning effective. *)

type var = private {
  v_id : int;  (** unique per name *)
  v_name : string;
  v_lo : int;
  v_hi : int;
}

val var : string -> lo:int -> hi:int -> var
(** Interned by (name, domain): the same name and bounds always yield
    the same variable, so constraints from different runs over the same
    input field talk about the same thing.
    @raise Invalid_argument on an empty domain. *)

type t =
  | Const of int
  | Var of var
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Band of t * t  (** bitwise and *)
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | And of t * t
  | Or of t * t
  | Not of t

val tru : t
val fls : t

val eval : (var -> int) -> t -> int
(** Boolean nodes evaluate to 0/1. *)

val is_true : (var -> int) -> t -> bool
val vars : t -> var list
(** Deduplicated, in first-occurrence order. *)

val negate : t -> t
(** Logical negation, pushing through comparisons where cheap
    ([negate (Lt a b)] is [Le b a]). *)

val mix : int -> int -> int
(** [mix h x] folds the word [x] into the running hash [h]. *)

val hash : ?seed:int -> t -> int
(** A non-negative structural hash: a fold of {!mix} over the
    expression's constructor tags, variable ids and constants in
    pre-order, starting from [seed].  Structurally equal expressions
    hash alike; the whole tree is read (unlike [Hashtbl.hash], which
    samples a bounded prefix).  Folds from different seeds are
    independent, so two of them make a wider key.  Variable ids are
    handed out in interning order, so a hash is only meaningful within
    one process. *)

val to_string : t -> string
(** For display only. *)
