(** Replayable fault scenarios — the unit the minimizer shrinks and
    the corpus stores.

    A scenario is a {e complete}, seeded description of one detection
    attempt: which topology to deploy (and which induced node subset to
    keep), what to inject, how long to settle, the churn and mangler
    schedules, and how to look for the fault (a full orchestrated
    exploration, or one direct snapshot-and-replay).  Everything is
    driven by explicit seeds and simulated time, so {!run} is
    deterministic: the same scenario value detects the same signatures
    on every host, every time.

    Wire scenarios are the degenerate case used by the codec fuzzer:
    just the bytes, replayed through {!Bgp.Wire.decode}. *)

type topo =
  | Demo27
  | Gadget  (** {!Topology.Gadget.embedded}, 12 nodes *)
  | Bad_gadget  (** {!Topology.Gadget.bad_gadget}, 4 nodes *)
  | Random of { r_seed : int; r_tier1 : int; r_transit : int; r_stub : int }
  | File of string
      (** a topology carried as {!Topology.Topo_file} text, so a
          scenario over a file topology stays self-contained *)

type mangle = {
  mg_seed : int;
  mg_rate : float;
  mg_kinds : Netsim.Mangler.kind list;  (** [[]] means all kinds *)
  mg_schedule : Netsim.Mangler.schedule;
  mg_fragile_node : int option;
      (** node seeded with the fragile-decode bug, as in the demo's
          adversary mode *)
}

type exploration = {
  ex_rounds : int;  (** [0] = one round per explorer node *)
  ex_nodes : int list;  (** explorer nodes; [[]] = every node *)
  ex_max_inputs : int;
  ex_max_branches : int;
  ex_solver_nodes : int;
  ex_fuzz_extra : int;
  ex_mangle_extra : int;
  ex_mangle_seed : int;
  ex_peers_per_node : int;
  ex_shadow_budget : int;
  ex_deadline_sec : float option;
}

type mode =
  | Explore of exploration
  | Direct of { dr_node : int; dr_peer : int; dr_input : (string * int) list option }
      (** one snapshot from [dr_node]: baseline checks, plus — when
          [dr_input] is given — a single shadow replay of that concolic
          input over session [dr_peer] *)

type deploy = {
  dp_topo : topo;
  dp_keep : int list option;  (** induced-subgraph node subset *)
  dp_seed : int;
  dp_inject : Dice.Inject.scenario option;
  dp_settle_sec : float;
      (** simulated settle time between injection and arming the churn
          and mangler schedules *)
  dp_churn : Netsim.Churn.schedule;
  dp_mangle : mangle option;
  dp_confuzz : Confuzz.Mutation.t list;
      (** operator-error config mutations, applied in order to the live
          speakers after [dp_inject] and before settling; an
          inapplicable mutation aborts the replay (setup failure).
          Absent in pre-confuzz corpus entries (decodes as [[]]). *)
  dp_cascade : bool;
      (** run the cascade detector over the replay's own telemetry and
          add any cascade found to the outcome — set for scenarios
          whose detection is a {!Dice.Fault.Cascade}.  Absent in
          pre-cascade corpus entries (decodes as [false]). *)
  dp_mode : mode;
}

type t = Deploy of deploy | Wire of string

val default_exploration : exploration
(** {!Dice.Explorer.default_params} lifted into scenario form:
    [ex_rounds = 0], all nodes. *)

val base_graph : topo -> Topology.Graph.t

val graph_of : deploy -> Topology.Graph.t
(** [base_graph] restricted to [dp_keep] when present.
    @raise Invalid_argument if [dp_keep] names unknown nodes. *)

(** {1 Template expansion} *)

val with_seed : int -> t -> t
(** Seed-sweep expansion: one campaign template × N seeds = N distinct
    scenarios.  Rebinds every seed the deployment draws at run time —
    [dp_seed] itself, the mangler stream ([mg_seed], derived as
    [seed lxor 0xAD5E], matching the demo's adversary mode) and the
    explorer's mangled-input stream ([ex_mangle_seed], derived as
    [seed lxor 0x5EED] when mangled exploration is on) — while the
    topology (including a [Random] topology's [r_seed]) stays fixed,
    so a sweep explores N behaviors of the {e same} network.  Wire
    scenarios have no seed and are returned unchanged. *)

(** {1 Size} *)

val size : t -> int
(** The minimizer's objective: bytes for wire scenarios; nodes +
    schedule events + work units (inputs, rounds) for deployments.
    Strictly monotone in each of the components ddmin shrinks. *)

(** {1 Replay} *)

type outcome = {
  o_signatures : Dice.Signature.t list;
  o_faults : Dice.Fault.t list;
  o_error : string option;
      (** set when the scenario could not even be deployed (e.g. the
          inject target was pruned away) — the run detects nothing *)
}

val run : t -> outcome
(** Deterministic headless replay.  Installs and tears down its own
    simulation; the caller's telemetry clock is saved and restored, so
    running a scenario from inside a live run's hook does not corrupt
    the outer timeline.  Never raises: setup failures land in
    [o_error]. *)

val run_observed :
  ?on_deployed:(Topology.Build.t -> unit) ->
  ?on_fault:(Dice.Fault.t -> unit) ->
  ?until:Dice.Fault.fault_class ->
  ?around_explore:
    (Topology.Build.t ->
    (unit -> Dice.Orchestrator.summary) ->
    Dice.Orchestrator.summary) ->
  ?on_finished:(Topology.Build.t -> Dice.Fault.t list -> unit) ->
  t ->
  outcome
(** {!run} with observers: the repair engine's hooks and everything a
    live run adds (all ignored for [Wire] scenarios).  [on_deployed]
    fires once the deployment is fully configured — inject and confuzz
    mutations applied — but before settling, the point to harvest live
    configs or arm {!Bgp.Clause_cov}.  [on_finished] fires after fault
    collection with the network still alive, so RIBs and final configs
    are readable.

    In [Explore] mode, [on_fault] and [until] are passed to
    {!Dice.Orchestrator.run}.  [until] cuts the exploration short
    after the first round that reports its class, so the outcome's
    signatures are those of the rounds that ran; [Direct] mode ignores
    it.  [around_explore build explore] wraps the exploration once
    every schedule is armed — the point to install a telemetry
    artifact; its result is the run's summary.

    A [dp_cascade] scenario runs one {!Cascade.Online} monitor around
    the whole replay, deployment included.  In [Explore] mode it is the
    orchestrator's [probe], so every cascade it reports after a round
    reaches [on_fault] as it surfaces; both modes probe it once more at
    the end.  A live run and its headless replay therefore detect
    cascades the same way.

    Hook exceptions propagate into [o_error] like any setup failure.
    The hooks never change what the run detects; only [until] does, by
    running fewer rounds. *)

val detects : t -> Dice.Signature.t -> bool
(** [detects t sg] — does one replay of [t] report [sg]?  The
    minimizer's acceptance test. *)

(** {1 Persistence} *)

val to_json : t -> Telemetry.Json.t
val of_json : Telemetry.Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result
(** Round-trip guarantee: [of_string (to_string t) = Ok t']
    with [equal t t']. *)

val equal : t -> t -> bool
