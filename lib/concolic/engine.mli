(** The concolic exploration loop (the Oasis substitute).

    Generational search (Godefroid et al.): execute the program on a
    concrete input while collecting the path condition; for every
    symbolic branch past the input's generation bound, negate it,
    keep the prefix, and ask the solver for an input that drives
    execution down the other side.  Each satisfiable model becomes a
    new input in the worklist. *)

type 'a outcome = Value of 'a | Raised of exn

type 'a run = { run_input : Ctx.input; run_outcome : 'a outcome }
(** One execution of the program: its input and how it ended.  The
    path condition is folded into [distinct_paths] and the run's
    expansions as the run ends, and is not kept. *)

type 'a result = {
  runs : 'a run list;  (** in execution order *)
  distinct_paths : int;
  crashes : 'a run list;  (** runs whose outcome is [Raised] *)
  inputs_executed : int;
  solver_calls : int;
  solver_sat : int;
}

type limits = {
  max_inputs : int;  (** stop after this many executions *)
  max_branches : int;  (** negate at most this many branches per run *)
  solver_nodes : int;  (** per-query solver budget *)
}

val default_limits : limits

val explore : ?limits:limits -> seeds:Ctx.input list -> (Ctx.t -> 'a) -> 'a result
(** Exceptions escaping the program are captured as [Raised] (crash
    candidates), never propagated — except [Stack_overflow] and
    [Out_of_memory], which are re-raised. *)

val path_signature : (Expr.t * bool) list -> int
(** A structural hash of a path, each branch's direction and condition
    in order ({!Expr.hash}, so keyed on variable ids and rendering
    nothing): [distinct_paths] counts the distinct signatures of one
    {!explore}.  Equal paths hash alike; within one process, so do
    paths whose conditions are structurally equal. *)
