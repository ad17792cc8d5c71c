(** Concrete property checkers for BGP, run against a shadow clone
    after an explored input has been applied.

    Each checker returns one local verdict per node; the explorer keeps
    full evidence only for its own node and converts remote verdicts
    into {!Privacy} digests. *)

type memo
(** The per-speaker verdict memo (below), carried across cuts. *)

type captured
(** A cut's verdicts at its captures ({!captured}, below). *)

type ground_truth = {
  owner_of : Bgp.Prefix.t -> int option;
      (** ASN authorized to originate the (covering) prefix *)
  memo : memo;
  derivations : Sym_handler.memo;
      (** each explored session's last concolic derivation
          ({!Sym_handler.derive}), carried across cuts like [memo] *)
  last_captured : captured option Atomic.t;
      (** the last cut's verdicts at its captures, which the next cut
          reuses while its captures are the same ({!captured}) *)
}

val ground_truth_of_graph : Topology.Graph.t -> ground_truth
(** Registry semantics: node [i]'s /24 (and anything it subsumes) may
    only be originated by AS [asn_of_node i].  Both memos start
    empty. *)

type verdict = {
  v_node : int;
  v_property : string;
  v_ok : bool;
  v_evidence : string;  (** never shared across domains directly *)
}

val convergence_verdict : Snapshot.Store.settled -> int -> verdict
(** A node's convergence verdict on a shadow that settled so:
    [Quiesced] passes, [Oscillating] is a routing oscillation
    (policy-conflict class) and [Diverging] is reported as
    non-quiescence within the event budget. *)

val convergence : ?budget:int -> Snapshot.Store.clone -> verdict list
(** {!Snapshot.Store.settle}s the clone and gives every checkpointed
    node its {!convergence_verdict}, in node order. *)

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
(** Every per-speaker checker, in this order:
    - origin authenticity ([Baseline], operator mistake): a selected
      route whose origin AS is not the prefix owner — a hijack;
    - no martians ([Per_input], operator mistake): no selected route
      for martian space or a bogus netmask;
    - no own AS in path ([Per_input], programming error): catches the
      loop-check bypass bug;
    - decision process spec ([Per_input], programming error): the
      selected route equals a reference run of the decision process
      over the same candidates; catches the inverted-MED bug.

    {!convergence} is not among them: the explorer invokes it
    separately because it advances shadow time itself.

    {b Purity contract:} each [check] is a pure function of the node
    id, [sp_config ()] and [sp_rib ()] (both immutable values) and of
    the ground truth.  A checker reads nothing else — no engine, no
    network, no other speaker — so a verdict computed once for an (id,
    config, rib) holds wherever those three recur, which is what the
    memo relies on.  The three [Per_input] checkers hold it per
    prefix: the evidence against a prefix [p] is a pure function of
    the node id, the config, [loc[p]] and [cands[p]].  No-martians and
    no-own-AS apply to each Loc-RIB prefix, the decision-process spec
    to each prefix of the Loc-RIB and the configured networks; a
    verdict joins its failing prefixes' evidence with ["; "]
    (descending prefix order for the first two, ascending for the
    spec). *)

(** {1 Verdict memo}

    Between two cuts of a healthy deployment almost nothing changes,
    and most shadows touch a handful of speakers.  The ground truth's
    memo holds, per node id, the config and RIB it last checked, that
    speaker's verdicts for the whole {!standard_suite} and, per
    [Per_input] checker, the evidence of each failing prefix (nothing
    on a healthy speaker).  A speaker whose [sp_config ()] and
    [sp_rib ()] are physically equal ([==]) to its entry reuses the
    verdicts.  One whose config is still the entry's but whose RIB is
    not re-evaluates only {!Bgp.Rib.changed_prefixes} between the two
    RIBs, starting from the entry's failing prefixes; any other is
    checked whole.  Both follow from the purity contract, so reuse
    never changes a verdict.  The memo lives as long as the ground
    truth, across cuts, and keeps one entry per node, sharing the RIB
    it was given.  The explorer records each cut's pristine clone,
    answers the baseline checks from the memo ({!run_baseline}), and
    checks its replays through {!captured} below.

    Beside it, [derivations] carries the inputs: per (node, peer
    address) the last view of that session the explorer derived and
    its concolic result.  A session whose captured config and Loc-RIB
    are physically the ones derived last, under the same bug flags and
    limits, reuses the result instead of running the handler and the
    solver again ({!Sym_handler.derive}); the result is a pure
    function of the view, so reuse never changes an input, its order
    or a path count. *)

val record : ground_truth -> Snapshot.Store.clone -> int list
(** Check every checkpointed node of the clone that the memo cannot
    reuse, at its touched speaker's config and RIB or else its
    capture's (the [Per_input] checkers on the changed prefixes where
    the config allows), and make it that node's entry; returns those
    node ids, ascending.  The explorer records the pristine clone of
    each cut before its replays fan out, never during them. *)

val reuses : ground_truth -> int -> Bgp.Speaker.t -> bool
(** Is the memo's entry for this node that speaker's config and RIB? *)

val run_baseline : ground_truth -> Snapshot.Store.clone -> checker * verdict list
(** The {!standard_suite}'s [Baseline] checker and its verdicts over
    the checkpointed nodes in order, each at its touched speaker or
    else its capture — equal to [c.run] over the clone's
    {!Snapshot.Store.shadow}.  Reads the memo and never writes it: a
    node it cannot reuse is checked. *)

(** {1 Verdicts at the capture}

    A clone's untouched node {e is} its checkpoint, so its verdicts
    are the same in every replay of a cut.  {!captured} checks each
    checkpointed node at its captured config and RIB (from the memo
    where the entry is that capture, else on the prefixes changed
    since the entry), and builds the columns from those rows once for
    each distinct set of captures: a cut whose captures are all the
    last cut's shares that cut's columns.  A replay then checks only
    the speakers {!Snapshot.Store.touched} lists, each against its
    capture, on the prefixes it changed ({!changed}).  A node the
    pristine clone changed has a memo entry that is not its capture,
    and is answered from the capture all the same. *)

val captured : ground_truth -> Snapshot.Cut.snapshot -> captured
(** Reads the memo and never writes it.  When every checkpoint's
    captured config and RIB are physically those of the rows in
    [last_captured], node for node, that value itself is returned;
    otherwise the rows are built and the result is kept there.  The
    verdicts are a pure function of the rows, so reuse never changes
    one. *)

val nodes : captured -> int array
(** The checkpointed node ids, ascending: the order of every column. *)

(** One checker's verdicts over {!nodes}, each with its {!Privacy}
    digest, and the failing ones in node order.  Every node's digest is
    there, the exploring node's too: it is left out when the explorer
    reports, so one column serves every exploring node. *)
type column = {
  c_class : Fault.fault_class;
  c_rows : (verdict * Privacy.digest) array;
  c_failing : verdict list;
}

val column : Fault.fault_class -> verdict array -> column

val edit : column -> (int * verdict) list -> column
(** The column with these (index, verdict) rows replaced; the column
    itself when there are none. *)

val columns : captured -> column list
(** Each [Per_input] checker of {!standard_suite}, in suite order, with
    its verdict for each of {!nodes} at the capture: the checker's
    [run] over an untouched shadow of the snapshot. *)

val quiesced : captured -> column
(** Every node's {!convergence_verdict} on a shadow that quiesced. *)

val changed : captured -> Snapshot.Store.clone -> (checker * (int * verdict) list) list
(** For each of {!columns}, in order, the verdicts of a clone of the
    same snapshot that differ from the column, as (index into {!nodes},
    verdict), ascending: only touched speakers can differ, so only they
    are looked at. *)
