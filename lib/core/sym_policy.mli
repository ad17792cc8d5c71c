(** Instrumented evaluation of route maps over symbolic routes.

    This is the "configuration interpreter" half of the paper's
    instrumentation: evaluating the node's actual [Policy.t] over a
    symbolic route records one branch per match clause, so the recorded
    constraints — and hence the inputs the solver derives — reflect the
    configuration currently in force, not just the code. *)

type result =
  | Accepted of Sym_route.t  (** after applying the entry's set clauses *)
  | Denied

val eval :
  Concolic.Ctx.t ->
  own_asn:int ->
  universe:Bgp.Community.t list ->
  Bgp.Policy.t ->
  Sym_route.t ->
  result
