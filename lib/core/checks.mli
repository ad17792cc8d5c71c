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

(** {1 Per-speaker checkers}

    Each checker below is one function from a node id and its speaker
    to that speaker's verdict.  {b Purity contract:} a per-speaker
    verdict is a pure function of the node id, [sp_config ()] and
    [sp_rib ()], both immutable values.  A checker reads nothing else
    (no engine, no network, no other speaker), so a verdict computed
    once for a given (id, config, rib) holds wherever those three
    recur — which is what {!run_memo} relies on. *)

val origin_authenticity : ground_truth -> int -> Bgp.Speaker.t -> verdict
(** Detects prefix hijacks: a selected route whose origin AS is not the
    prefix owner (operator-mistake class). *)

val no_martians : int -> Bgp.Speaker.t -> verdict
(** No selected route for martian address space or bogus netmask
    (operator-mistake class). *)

val no_own_as_in_path : int -> Bgp.Speaker.t -> verdict
(** AS-path loop detection must hold (programming-error class:
    catches the loop-check bypass bug). *)

val decision_matches_spec : int -> Bgp.Speaker.t -> verdict
(** The selected route must equal a reference run of the decision
    process over the same candidates (programming-error class: catches
    the inverted-MED bug). *)

val convergence : ?budget:int -> Snapshot.Store.shadow -> verdict list
(** Runs the shadow, sampling the global Loc-RIB state every 100
    events.  If it fails to quiesce within [budget] events and the
    state revisits an earlier one (A -> B -> A: changed since the last
    sample, seen before), the system is oscillating (policy-conflict
    class); non-quiescence without a revisit is reported as divergence.

    A revisit needs three samples, so the first two are kept as
    {!Snapshot.Store.loc_ribs} pointers and fingerprinted only once a
    third is taken; a shadow that quiesces before its third sample
    computes no fingerprint at all.  The verdict is the one an eager
    fingerprint of every sample would give. *)

type scope =
  | Baseline  (** state property: checked once per snapshot, pre-input *)
  | Per_input  (** behavior property: checked after every explored input *)

type checker = {
  name : string;
  fault_class : Fault.fault_class;
  scope : scope;
  check : int -> Bgp.Speaker.t -> verdict;  (** one speaker; see the purity contract *)
  run : Snapshot.Store.shadow -> verdict list;
      (** [check] over [sh_speakers], in that order *)
}

val standard_suite : ground_truth -> checker list
(** Everything above except [convergence] (which the explorer invokes
    separately because it advances shadow time itself).
    [origin_authenticity] and other unfilterable state properties carry
    [Baseline] scope. *)

(** {1 Verdict memo}

    Most shadows touch a handful of speakers; the rest keep the very
    Loc-RIB they were cloned with.  A memo records, for one clone, each
    speaker's config, RIB and verdicts; a later clone of the same
    snapshot reuses the verdicts of every speaker whose [sp_config ()]
    and [sp_rib ()] are physically equal ([==]) to the recorded ones
    and checks the others.  Identity is exactly the verdict's input, so
    reuse never changes a verdict.  A speaker whose [sp_rib] builds a
    fresh view on every call (Sparrow) never matches and is always
    checked. *)

type memo

val unrecorded : checker list -> memo
(** Nothing recorded: {!run_memo} checks every speaker. *)

val record : checker list -> Snapshot.Store.shadow -> memo
(** Check every speaker of the shadow and record the results.  The memo
    is read-only afterwards and safe to share across domains. *)

val reuses : memo -> int -> Bgp.Speaker.t -> bool
(** Would {!run_memo} reuse the recorded verdicts of this speaker? *)

val run_memo : memo -> Snapshot.Store.shadow -> (checker * verdict list) list
(** For each memo checker, in order, its verdicts over [sh_speakers] in
    order — equal to [List.map (fun c -> (c, c.run shadow)) checkers]. *)
