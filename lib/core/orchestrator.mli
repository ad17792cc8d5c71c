(** Continuous exploration alongside the live system, under
    supervision.

    Round-robin over explorer nodes: each round takes a snapshot,
    explores it in isolation, then lets the live system run for the
    configured interval before the next node starts.  This is the
    "operates alongside the deployed system but in isolation from it"
    loop of the paper.

    {b Supervision.} On a churning deployment a round can go wrong —
    the cut aborts into a partial snapshot, or the exploration raises.
    Each round therefore runs under exception containment and produces
    a {!round_outcome} instead of propagating: [Ok] for a clean round,
    [Degraded] when the round produced results from a partial cut, and
    [Failed] when the exploration raised (the live system still
    advances by [interval] so later rounds see fresh state).  A node
    whose rounds fail 3 times consecutively is quarantined — skipped by
    the scheduler — for [2 * 2^(previous quarantines)] rounds
    ({!Supervise.create}'s defaults).  No outcome depends on host
    speed, so a run's rounds replay identically anywhere. *)

type exn_info = { ei_exn : string; ei_backtrace : string }

type round_outcome =
  | Ok of Explorer.exploration
  | Degraded of Explorer.exploration * string
      (** results were produced from a partial cut; the string says
          why *)
  | Failed of exn_info

type round = {
  rd_index : int;
  rd_node : int;  (** the explorer node this round ran on *)
  rd_started_at : Netsim.Time.t;
  rd_outcome : round_outcome;
}

val round_exploration : round -> Explorer.exploration option
(** [None] exactly for [Failed] rounds. *)

type quarantine_event = {
  q_node : int;
  q_round : int;  (** round index whose failure triggered it *)
  q_strikes : int;
  q_until_round : int;  (** first round index the node is eligible again *)
}

type summary = {
  rounds : round list;
  faults : Fault.t list;  (** deduplicated across rounds *)
  signatures : (Signature.t * int) list;
      (** every distinct stable fingerprint detected during the run
          (derived with the deployment's graph, so roles are
          canonicalized), with its hit count across rounds; in
          first-detection order *)
  first_detection : (Fault.fault_class * Netsim.Time.t * int) list;
      (** per detected class: the {e earliest} simulated detection time
          across all signatures of that class, and the (1-based) round
          that achieved it; sorted by detection time *)
  total_inputs : int;
  total_shadow_runs : int;
  total_wall_seconds : float;
  ok_rounds : int;
  degraded_rounds : int;
  failed_rounds : int;
  quarantines : quarantine_event list;  (** in trigger order *)
  leaked_snapshots : int;
      (** cuts still active when the run ended — 0 unless a cut without
          a deadline stalled *)
}

val run :
  ?params:Explorer.params ->
  ?interval:Netsim.Time.span ->
  ?nodes:int list ->
  ?on_fault:(Fault.t -> unit) ->
  ?probe:(unit -> Fault.t list) ->
  ?until:Fault.fault_class ->
  build:Topology.Build.t ->
  gt:Checks.ground_truth ->
  rounds:int ->
  unit ->
  summary
(** [nodes] defaults to every node of the deployment; [interval]
    (default 5 s simulated) separates successive snapshots.  [on_fault] fires once per newly-seen fault root as
    soon as the detecting round completes (live crash faults fire at
    end of run) — the hook the triage layer uses to auto-minimize and
    file detections without the core depending on it.  [probe] is
    polled after every round; any faults it returns join the summary's
    fault list and signatures and flow through [on_fault] — the cascade
    monitor ([Cascade.Online]) plugs in here, analysing its ring of
    recent telemetry without the core depending on the analysis layer.
    Rounds never propagate exploration exceptions — see the supervision
    notes above.

    [until] stops the run early, after the first round whose
    exploration or [probe] reports a fault of that class; for
    {!Fault.Programming_error} a live crash absorbed by the network
    during the round (see {!Netsim.Network.crashes}) also counts.
    [rounds] stays the cap.  The detecting round is the summary's last
    round, and [first_detection] carries the class with its simulated
    time and round; a run that hit the cap without a detection has no
    entry for the class (unless a live crash predating the run
    supplies one).  Without [until] every one of [rounds] runs.

    @raise Invalid_argument if [rounds > 0] and the node list is
    empty. *)

val pp_outcome : Format.formatter -> round_outcome -> unit
val pp_summary : Format.formatter -> summary -> unit
