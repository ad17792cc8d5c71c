(** Constraint solver for path conditions.

    Interval (bounds) propagation with a contractor per operator,
    followed by branch-and-propagate search over the remaining domains.
    Complete enough for the linear / bitfield constraints that message
    parsing and policy evaluation generate; answers:

    - [Sat model] — the model is {e verified} by concrete evaluation of
      every constraint before being returned, so SAT answers are sound
      unconditionally;
    - [Unsat] — sound because contractors only ever remove values that
      cannot appear in any solution;
    - [Unknown] — search budget exhausted. *)

type model = (Expr.var * int) list

type outcome = Sat of model | Unsat | Unknown

type stats = {
  solved_sat : int;
  solved_unsat : int;
  solved_unknown : int;
  search_nodes : int;
  cache_hits : int;  (** memoized answers served *)
  cache_misses : int;  (** full solves behind the cache *)
}

val stats : unit -> stats
(** Snapshot of the solver's accounting.  The live counters are
    [solver.*] entries in {!Telemetry.Metrics} (atomic, so concurrent
    solves on several domains don't race); this reads them
    back for the benchmark harness. *)

val reset_stats : unit -> unit

val solve : ?max_nodes:int -> Expr.t list -> outcome
(** [max_nodes] bounds the search tree (default 20_000).

    Answers are memoized (when the cache is enabled, the default) on a
    canonical key of the constraint set: two independently seeded
    {!Expr.hash}es of each conjunct (keyed on interned variable ids),
    sorted so that permutations of the same set share an entry, folded
    with [max_nodes] (which changes [Unknown] answers) into about 124
    bits.  Nothing is rendered, and the cache holds no expression.
    The solver is deterministic, so serving a cached outcome is
    indistinguishable from re-solving. *)

val solve_negated : detection:Expr.t -> Expr.t list -> outcome
(** The repair engine's query: a model under which [detection] is
    false (the fault's detection predicate cannot fire) while every
    side [constraint] still holds.  Equivalent to
    [solve (Expr.negate detection :: constraints)] and shares the memo
    cache; [Sat model] means the model falsifies [detection]. *)

val set_cache_enabled : bool -> unit
(** Turn memoization on/off (on by default).  Existing entries are
    kept; use {!clear_cache} to drop them. *)

val clear_cache : unit -> unit

val check : model -> Expr.t list -> bool
(** Do all constraints evaluate true under the model (unbound variables
    default to their domain minimum)? *)

val model_value : model -> Expr.var -> int option
