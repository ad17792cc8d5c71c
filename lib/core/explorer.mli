(** Per-node exploration: the core DiCE loop of Figure 2.

    1. trigger a consistent snapshot from the explorer node;
    2. derive inputs by concolic execution of the node's instrumented
       handler (plus grammar-based fuzzing);
    3. subject an isolated clone of the snapshot to each input and
       observe system-wide consequences through the property checkers;
    4. aggregate remote verdicts only as privacy-preserving digests.

    Exploration is one sequential path: sessions in config order, and
    within a session the replays in input order.  As in the paper,
    parallelism is across nodes, each exploring its own snapshot, not
    across the shadows of one exploration. *)

type params = {
  limits : Concolic.Engine.limits;
  fuzz_extra : int;  (** grammar-fuzzed inputs on top of concolic ones *)
  mangle_extra : int;
      (** byte-level mangled wire inputs on top of everything else:
          derived inputs are concretized and corrupted with the
          {!Netsim.Mangler} corpus, exercising the codec's error paths
          and surfacing decode crashes; 0 (the default) adds none *)
  mangle_seed : int;  (** seed for the mangled-input streams *)
  peers_per_node : int;  (** explore the first k sessions of the node *)
  shadow_budget : int;  (** event budget per shadow run *)
  check_convergence : bool;
  snapshot_deadline : Netsim.Time.span option;
      (** abort the cut into a [Partial] after this much simulated time;
          [None] (the default) waits the full 120 s horizon and fails if
          the cut never closes *)
}

val default_params : params

type exploration = {
  x_node : int;
  x_snapshot : Snapshot.Cut.snapshot;
  x_partial : bool;  (** the cut aborted at its deadline *)
  x_stalled : (int * int) list;
      (** channels whose marker never arrived (empty when complete) *)
  x_faults : Fault.t list;  (** deduplicated *)
  x_digests : Privacy.digest list list;
      (** remote check results, as segments in the order they arrive:
          the baseline's, then each replay's, sessions in config order
          and replays in input order; [List.concat] gives the stream.
          A replay that changed no verdict shares its cut's segment. *)
  x_inputs : int;  (** concolic executions of the instrumented handler *)
  x_shadow_runs : int;  (** clones subjected to inputs *)
  x_mangled : int;  (** of which mangled wire-byte inputs *)
  x_distinct_paths : int;
  x_crashes : int;
  x_snapshot_span : Netsim.Time.span;  (** sim time to collect the cut *)
  x_wall_seconds : float;  (** host time spent exploring (elapsed) *)
}

val take_snapshot :
  ?deadline:Netsim.Time.span ->
  build:Topology.Build.t ->
  cut:Snapshot.Cut.t ->
  node:int ->
  unit ->
  Snapshot.Cut.result
(** Initiate from [node] and drive the live engine until the cut
    settles — [Complete], or [Partial] once [deadline] elapses.
    @raise Failure if the cut is still open after 120 s of simulated
    time (or the engine goes idle with it open) and no deadline
    intervened. *)

val explore_node :
  ?params:params ->
  build:Topology.Build.t ->
  cut:Snapshot.Cut.t ->
  gt:Checks.ground_truth ->
  node:int ->
  unit ->
  exploration
(** Steps 1–4 from [node] over its first [peers_per_node] sessions.
    Step 2 reuses a session's derivation from [gt]'s derivation memo
    when the session's view is the one derived last
    ({!Sym_handler.derive}), and records a fresh one otherwise; each
    [peer] span says which in its [derivation] attribute (["memo"] or
    ["fresh"]). *)

(** {1 The replays of one cut} *)

type checked_cut
(** A cut as its replays are checked: the snapshot, the exploring node,
    and every checkpointed node's per-input and convergence verdicts at
    its capture ({!Checks.captured}), each with the digest the
    explorer would receive. *)

val check_cut :
  ?params:params -> gt:Checks.ground_truth -> node:int -> Snapshot.Cut.snapshot -> checked_cut
(** Reads [gt]'s verdict memo and never writes it; {!explore_node}
    records the pristine clone into it first. *)

val replay :
  checked_cut ->
  peer_addr:Bgp.Ipv4.t ->
  now:Netsim.Time.t ->
  ?input:Concolic.Ctx.input ->
  crash_property:string ->
  string ->
  Fault.t list * Privacy.digest list
(** Deliver the raw bytes to the node, as from [peer_addr], on a fresh
    shadow of the cut, settle it, and report: a [Crash] of the handler
    as a [crash_property] fault, then, checker by checker (the
    per-input ones in suite order, then convergence) and node by node,
    a fault for each failing verdict (with its evidence at the
    exploring node only) and a digest of each other node's verdict.
    Equal to running each per-input checker's [run] and
    {!Checks.convergence} over [sh_speakers] of that shadow; only the
    speakers the replay touched are checked. *)

val replay_direct :
  ?params:params ->
  build:Topology.Build.t ->
  cut:Snapshot.Cut.t ->
  gt:Checks.ground_truth ->
  node:int ->
  ?peer_index:int ->
  ?input:Concolic.Ctx.input ->
  unit ->
  Fault.t list
(** Headless single-shot replay for delta-minimized repros: take a
    snapshot from [node], run the baseline checkers against the
    unperturbed clone, and — when [input] is given — subject one fresh
    clone to that single concolic input over session [peer_index]
    (default 0, out-of-range yields no input faults).  Returns the
    deduplicated faults.  No concolic derivation, no fuzzing: the cheap acceptance test the minimizer runs
    after every shrink step. *)
