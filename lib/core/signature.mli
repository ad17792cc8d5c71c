(** Stable, replay-independent fault fingerprints.

    A signature identifies a detection by {e what} was detected — fault
    class, violated property, canonicalized node role, node id, and the
    {!Fault.normalize_detail}-normalized detail — and by nothing about
    {e how} it was detected: no timestamps, no triggering input, no
    exploration round.  Two runs of the same scenario (original or
    delta-minimized) that surface the same root
    cause therefore produce equal signatures, which is what makes the
    triage corpus and the regression replayer possible.

    The canonical wire form ([to_string]/[of_string]) is one line:
    ["class|property|role|node|detail"]. *)

type t = {
  sg_class : Fault.fault_class;
  sg_property : string;
  sg_role : string;
      (** canonicalized node role: the topology tier ([tier1] /
          [transit] / [stub]) when a graph is supplied, ["wire"] for
          node-less codec findings (node -1), ["-"] when unknown *)
  sg_node : int;
  sg_detail : string;  (** normalized — see {!Fault.normalize_detail} *)
}

val wire_role : string
(** ["wire"] — role given to deployment-less codec findings (e.g. the
    wire fuzzer's). *)

val make :
  ?graph:Topology.Graph.t ->
  ?role:string ->
  node:int ->
  property:string ->
  Fault.fault_class ->
  string ->
  t
(** [make cls detail] normalizes [detail] and derives the role from
    [graph] (explicit [role] wins). *)

val of_fault : ?graph:Topology.Graph.t -> Fault.t -> t

val to_string : t -> string
val of_string : string -> (t, string) result
val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
