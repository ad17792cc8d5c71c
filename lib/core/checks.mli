(** Concrete property checkers for BGP, run against a shadow clone
    after an explored input has been applied.

    Each checker returns one local verdict per node; the explorer keeps
    full evidence only for its own node and converts remote verdicts
    into {!Privacy} digests. *)

type ground_truth = {
  owner_of : Bgp.Prefix.t -> int option;
      (** ASN authorized to originate the (covering) prefix *)
}

val ground_truth_of_graph : Topology.Graph.t -> ground_truth
(** Registry semantics: node [i]'s /24 (and anything it subsumes) may
    only be originated by AS [asn_of_node i]. *)

type verdict = {
  v_node : int;
  v_property : string;
  v_ok : bool;
  v_evidence : string;  (** never shared across domains directly *)
}

val origin_authenticity : ground_truth -> Snapshot.Store.shadow -> verdict list
(** Detects prefix hijacks: a selected route whose origin AS is not the
    prefix owner (operator-mistake class). *)

val no_martians : Snapshot.Store.shadow -> verdict list
(** No selected route for martian address space or bogus netmask
    (operator-mistake class). *)

val no_own_as_in_path : Snapshot.Store.shadow -> verdict list
(** AS-path loop detection must hold (programming-error class:
    catches the loop-check bypass bug). *)

val decision_matches_spec : Snapshot.Store.shadow -> verdict list
(** The selected route must equal a reference run of the decision
    process over the same candidates (programming-error class: catches
    the inverted-MED bug). *)

val convergence : ?budget:int -> Snapshot.Store.shadow -> verdict list
(** Runs the shadow, sampling the global RIB fingerprint every 100
    events.  If it fails to quiesce within [budget] events and the
    fingerprint revisits an earlier value, the system is
    oscillating (policy-conflict class); non-quiescence without a
    revisit is reported as divergence. *)

type scope =
  | Baseline  (** state property: checked once per snapshot, pre-input *)
  | Per_input  (** behavior property: checked after every explored input *)

type checker = {
  name : string;
  fault_class : Fault.fault_class;
  scope : scope;
  run : Snapshot.Store.shadow -> verdict list;
}

val standard_suite : ground_truth -> checker list
(** Everything above except [convergence] (which the explorer invokes
    separately because it advances shadow time itself).
    [origin_authenticity] and other unfilterable state properties carry
    [Baseline] scope. *)
