(** Concolic execution context for one run of an instrumented handler.

    The context maps named symbolic input fields to concolic values and
    records the path condition at every branch the handler takes. *)

type input = (string * int) list
(** An assignment of concrete values to input field names. *)

type t

val create : input -> t

val field : t -> string -> lo:int -> hi:int -> default:int -> Cval.t
(** Declare (or re-read) a symbolic input field.  Its concrete value
    comes from the run's input, falling back to [default]; the value is
    clipped into the domain.  Repeated reads of the same name in one
    run return the same concolic value. *)

val branch : t -> Cval.t -> bool
(** The instrumented [if]: returns the concrete truth value and, when
    the condition is symbolic, appends it to the path condition in the
    direction taken. *)

val path : t -> (Expr.t * bool) list
(** Branch conditions in execution order, each with the direction
    taken. *)

val branches : t -> int
(** Total branches executed (symbolic or not). *)

val input : t -> input
val input_update : input -> (string * int) list -> input
(** Right-biased merge, result sorted by field name. *)

val input_to_string : input -> string
