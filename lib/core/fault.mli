(** Fault reports — what DiCE detects.

    The first three classes are the paper's: operator mistakes
    (misconfiguration), policy conflicts across domains, and
    programming errors in the implementation.  [Cascade] is the
    self-sustaining failure class the cascade detector adds: route
    oscillations, flap storms and quarantine ping-pong, found by
    causally stitching individual fault propagations across rounds
    rather than by any single-snapshot property. *)

type fault_class = Operator_mistake | Policy_conflict | Programming_error | Cascade

val class_to_string : fault_class -> string
val class_of_string : string -> fault_class option

type t = {
  f_class : fault_class;
  f_property : string;  (** property whose violation was detected *)
  f_node : int;  (** node at which the violation manifests *)
  f_detail : string;
  f_input : Concolic.Ctx.input option;  (** triggering explored input *)
  f_detected_at : Netsim.Time.t;  (** simulated time of detection *)
}

val make :
  ?input:Concolic.Ctx.input ->
  at:Netsim.Time.t ->
  node:int ->
  property:string ->
  fault_class ->
  string ->
  t

val normalize_detail : string -> string
(** Erase run-specific payload from a detail string: digit runs become
    ['#'] and ['#'] groups joined only by separator characters collapse
    into one, so the same root cause produces the same normalized
    detail on every replay (the basis of {!Signature} stability). *)

val root : t -> string
(** ["class|property|node"] — the replay-independent deduplication key.
    Coarser than a {!Signature.t} (no role, no detail): two reports are
    the same root cause iff they name the same violated property at the
    same node. *)

val dedupe : t list -> t list
(** One representative per {!root}: the {e earliest} [f_detected_at]
    (first occurrence wins ties), in first-appearance order. *)

val pp : Format.formatter -> t -> unit
