(** Selective symbolization of a suspect site.

    Lifts the suspect's concrete constants into {!Concolic.Expr}
    variables (the {!Bgp.Policy.slots} of a policy entry; a single 0/1
    originate bit for network statements) and compiles the fault's
    {e detection predicate} over the localized witnesses: a formula
    that is true exactly when, under a candidate assignment to the
    constants, the suspect still produces the behavior the checker
    flagged.  The search stage then asks
    {!Concolic.Solver.solve_negated} for an assignment that falsifies
    it.

    Entries ahead of the suspect are not being repaired: a witness one
    of them decides ({!Bgp.Policy.deciding}) is dropped.  The suspect
    itself contributes a pure symbolic formula — fixing its outcome to
    the one the buggy config took would hide every repair that flips a
    match. *)

type slot_ref =
  | Policy_slot of Bgp.Policy.const_slot
  | Originate  (** a network statement's keep/drop bit (1 = originate) *)

type binding = {
  b_var : Concolic.Expr.var;
  b_slot : slot_ref;
  b_orig : int;  (** the deployed config's concrete value *)
}

type t = {
  sy_suspect : Localize.suspect;
  sy_detection : Concolic.Expr.t;
      (** true iff the fault's detection predicate still fires *)
  sy_constraints : Concolic.Expr.t list;
      (** side conditions a well-formed assignment must satisfy
          (ge <= le) *)
  sy_bindings : binding list;
      (** in slot order — also the search's preferred repair order *)
}

val lift :
  site:Localize.site ->
  seq:int ->
  Bgp.Policy.t ->
  (binding list * (Localize.witness -> Concolic.Expr.t option)) option
(** The repair-side evaluation of a map's suspect entry, the first with
    sequence number [seq] ([None] when there is none): its slots lifted
    to solver variables named after [site], in the search's preferred
    repair order, and for a witness the entry's match formula over
    them — [None] when an entry ahead of it decides the witness.  At
    the deployed constants ([b_orig]) the formula holds exactly when
    {!Bgp.Policy.deciding} picks the suspect entry. *)

val suspect :
  target:Dice.Signature.t -> Localize.suspect -> t option
(** [None] when the suspect cannot explain the fault: no symbolizable
    constants, no witness reaches the entry, or the detection predicate
    does not evaluate true under the original values (the reproduce
    gate — a suspect whose symbolic model doesn't reproduce the fault
    would let the solver "fix" it by changing nothing). *)
