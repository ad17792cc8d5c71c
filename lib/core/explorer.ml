type params = {
  limits : Concolic.Engine.limits;
  fuzz_extra : int;
  mangle_extra : int;
  mangle_seed : int;
  peers_per_node : int;
  shadow_budget : int;
  check_convergence : bool;
  snapshot_deadline : Netsim.Time.span option;
}

let default_params =
  { limits =
      { Concolic.Engine.max_inputs = 48; max_branches = 48; solver_nodes = 20_000 };
    fuzz_extra = 12;
    mangle_extra = 0;
    mangle_seed = 0;
    peers_per_node = 1;
    shadow_budget = 30_000;
    check_convergence = true;
    snapshot_deadline = None }

type exploration = {
  x_node : int;
  x_snapshot : Snapshot.Cut.snapshot;
  x_partial : bool;
  x_stalled : (int * int) list;
  x_faults : Fault.t list;
  x_digests : Privacy.digest list list;
  x_inputs : int;
  x_shadow_runs : int;
  x_mangled : int;
  x_distinct_paths : int;
  x_crashes : int;
  x_snapshot_span : Netsim.Time.span;
  x_wall_seconds : float;
}

let take_snapshot ?deadline ~build ~cut ~node () =
  Telemetry.with_span "cut"
    ~attrs:[ ("initiator", Telemetry.Json.Int node) ]
    (fun sp ->
      let eng = build.Topology.Build.engine in
      let result = ref None in
      let _id =
        Snapshot.Cut.initiate ?deadline cut ~initiator:node
          ~on_result:(fun r -> result := Some r)
      in
      (* Drive the live system until the markers have flooded the graph (or,
         with a deadline, until the cut aborts into a Partial). *)
      let horizon = Netsim.Time.span_sec 120. in
      let give_up = Netsim.Time.add (Netsim.Engine.now eng) horizon in
      let rec wait () =
        match !result with
        | Some r -> r
        | None ->
            if Netsim.Time.(give_up <= Netsim.Engine.now eng) then
              failwith "Explorer.take_snapshot: cut did not complete within horizon"
            else if not (Netsim.Engine.step eng) then
              (* Event queue drained with the cut still open: nothing can
                 close it anymore. *)
              failwith "Explorer.take_snapshot: engine idle with cut still open"
            else wait ()
      in
      let r = wait () in
      Telemetry.add_attr sp
        [ ( "result",
            Telemetry.Json.String
              (match r with
              | Snapshot.Cut.Complete _ -> "complete"
              | Snapshot.Cut.Partial _ -> "partial") );
          ("stalled", Telemetry.Json.Int (List.length (Snapshot.Cut.stalled_of r))) ];
      r)

(* A failing verdict as the explorer reports it: with its evidence
   only at the explorer's own node. *)
let fault_of ~self ~now ?input checker_class (v : Checks.verdict) =
  Fault.make ?input ~at:now ~node:v.Checks.v_node ~property:v.Checks.v_property
    checker_class
    (if v.Checks.v_node = self then v.Checks.v_evidence
     else
       (* Only the digest crossed the domain boundary: the report
          carries no remote evidence. *)
       "remote check digest reported a violation")

(* Columns as faults and as digests, each in column then node order.  A
   fault is recorded when it is made, so faults are made in that order
   too.  The explorer's own node sends no digest. *)
let faults_of ~self ~now ?input columns =
  List.concat_map
    (fun (c : Checks.column) ->
      List.map (fault_of ~self ~now ?input c.Checks.c_class) c.Checks.c_failing)
    columns

let digests_of ~self columns =
  List.fold_right
    (fun (c : Checks.column) digests ->
      Array.fold_right
        (fun ((v : Checks.verdict), d) digests ->
          if v.Checks.v_node = self then digests else d :: digests)
        c.Checks.c_rows digests)
    columns []

(* The unperturbed clone of the snapshot, quiesced: spawned once per
   cut for the baseline checks and, when exploring, the verdict memo. *)
let pristine ~params snapshot =
  let c = Snapshot.Store.clone snapshot in
  ignore (Snapshot.Store.run_to_quiescence ~max_events:params.shadow_budget c);
  c

(* Baseline (state) properties: checked once per exploration against
   the pristine clone.  Hoisted out of the per-peer loop — every peer
   saw the same snapshot, so the per-peer recomputation was pure
   waste. *)
let baseline_results ~gt ~node ~now pristine =
  let (c : Checks.checker), verdicts = Checks.run_baseline gt pristine in
  let columns = [ Checks.column c.Checks.fault_class (Array.of_list verdicts) ] in
  (faults_of ~self:node ~now columns, digests_of ~self:node columns)

type checked_cut = {
  k_params : params;
  k_derivations : Sym_handler.memo;
  k_snapshot : Snapshot.Cut.snapshot;
  k_node : int;
  k_captured : Checks.captured;
  k_columns : Checks.column list;  (* the per-input checkers', as {!Checks.columns} *)
  k_quiesced : Checks.column option;  (* convergence on a quiesced shadow, when checked *)
  k_digests : Privacy.digest list;  (* of a replay that changed no verdict *)
}

let convergence_column captured settled =
  Checks.column Fault.Policy_conflict
    (Array.map (Checks.convergence_verdict settled) (Checks.nodes captured))

let check_cut ?(params = default_params) ~gt ~node snapshot =
  let captured = Checks.captured gt snapshot in
  let k_columns = Checks.columns captured
  and k_quiesced =
    if params.check_convergence then Some (Checks.quiesced captured) else None
  in
  { k_params = params;
    k_derivations = gt.Checks.derivations;
    k_snapshot = snapshot;
    k_node = node;
    k_captured = captured;
    k_columns;
    k_quiesced;
    k_digests = digests_of ~self:node (k_columns @ Option.to_list k_quiesced) }

(* Replay one raw byte string over its own fresh clone and run the
   per-input property checkers, on the speakers the replay touched
   alone: every other one still holds its capture, whose verdicts and
   digests the cut already has.  Self-contained and free of shared
   mutable state: the shadow owns its engine, network and speakers,
   everything reachable from the snapshot is immutable, and the memo
   is not read.
   [crash_property] classifies a [Crash] escaping the shadow:
   "handler-crash" for concretized concolic inputs, "codec-crash" for
   mangled wire bytes. *)
let replay k ~peer_addr ~now ?input ~crash_property raw =
  Telemetry.with_span "shadow_replay" (fun _sp ->
  let node = k.k_node and budget = k.k_params.shadow_budget in
  let shadow = Snapshot.Store.clone k.k_snapshot in
  let target = Snapshot.Store.touch shadow node in
  let crash_faults =
    match
      target.Bgp.Speaker.sp_process_raw
        ~from_node:(Bgp.Router.node_of_addr peer_addr) raw
    with
    | () -> []
    | exception Bgp.Router.Crash detail ->
        [ Fault.make ?input ~at:now ~node ~property:crash_property
            Fault.Programming_error detail ]
  in
  (* Observe system-wide consequences. *)
  let settled =
    if k.k_params.check_convergence then Snapshot.Store.settle ~budget shadow
    else begin
      ignore (Snapshot.Store.run_to_quiescence ~max_events:budget shadow);
      Snapshot.Store.Quiesced
    end
  in
  let per_input =
    List.map2 (fun column (_, edits) -> Checks.edit column edits) k.k_columns
      (Checks.changed k.k_captured shadow)
  in
  let convergence =
    match (k.k_quiesced, settled) with
    | None, _ -> []
    | Some quiesced, Snapshot.Store.Quiesced -> [ quiesced ]
    | Some _, settled -> [ convergence_column k.k_captured settled ]
  in
  let columns = per_input @ convergence in
  let faults = faults_of ~self:node ~now ?input columns in
  (* Most replays change no verdict: they share the cut's digests. *)
  let unchanged =
    settled = Snapshot.Store.Quiesced && List.for_all2 ( == ) per_input k.k_columns
  in
  (crash_faults @ faults, if unchanged then k.k_digests else digests_of ~self:node columns))

let replay_input k ~view ~peer_addr ~now input =
  replay k ~peer_addr ~now ~input ~crash_property:"handler-crash"
    (Sym_handler.concretize view input)

(* The instrumented handler's view of [node]'s session with [peer], read
   from the node's checkpoint: the snapshot's consistent state. *)
let view_at (snapshot : Snapshot.Cut.snapshot) ~node ~peer =
  match
    snapshot.Snapshot.Cut.by_number.(Netsim.Network.node_number snapshot.Snapshot.Cut.topology
                                       node)
  with
  | Some cp -> Sym_handler.view_of_capture cp.Snapshot.Checkpoint.image ~peer
  | None -> invalid_arg (Printf.sprintf "Explorer: node %d not in the cut" node)

type peer_result = {
  pr_faults : Fault.t list;  (* deduped, canonical input order *)
  pr_digests : Privacy.digest list list;  (* one segment per replay, in task order *)
  pr_result : Sym_handler.outcome Concolic.Engine.result;
  pr_shadow_runs : int;
  pr_mangled : int;
}

let explore_peer k ~build ~peer_addr =
  let params = k.k_params and node = k.k_node in
  Telemetry.with_span "peer"
    ~attrs:[ ("node", Telemetry.Json.Int node);
             ("peer", Telemetry.Json.String (Bgp.Ipv4.to_string peer_addr)) ]
    (fun sp ->
  let now = Netsim.Engine.now build.Topology.Build.engine in
  let view = view_at k.k_snapshot ~node ~peer:peer_addr in
  (* Step 2: derive inputs by concolic execution, or reuse the last
     derivation of this session when its view has not changed. *)
  let result, derivation = Sym_handler.derive k.k_derivations ~limits:params.limits view in
  (* Crashes in the instrumented mirror are programming-error faults. *)
  let crash_faults =
    List.filter_map
      (fun (r : _ Concolic.Engine.run) ->
        match r.Concolic.Engine.run_outcome with
        | Concolic.Engine.Raised (Bgp.Router.Crash detail) ->
            Some
              (Fault.make ~input:r.Concolic.Engine.run_input ~at:now ~node
                 ~property:"handler-crash" Fault.Programming_error detail)
        | Concolic.Engine.Raised e ->
            Some
              (Fault.make ~input:r.Concolic.Engine.run_input ~at:now ~node
                 ~property:"handler-exception" Fault.Programming_error
                 (Printexc.to_string e))
        | Concolic.Engine.Value _ -> None)
      result.Concolic.Engine.runs
  in
  (* Step 3: subject clones to each derived input, in input order. *)
  let rng = Netsim.Rng.create (0xF0 + node) in
  let inputs =
    List.map (fun (r : _ Concolic.Engine.run) -> r.Concolic.Engine.run_input)
      result.Concolic.Engine.runs
    @ Sym_handler.fuzz_inputs view rng params.fuzz_extra
  in
  (* Mangled exploration seeds: concretize derived inputs to wire bytes
     and corrupt them with the adversary's byte-level corpus, cycling
     through the fault kinds so each one is exercised.  Deterministic:
     the stream is keyed only by [mangle_seed], the node and the peer. *)
  let mangled =
    if params.mangle_extra <= 0 || inputs = [] then []
    else begin
      let mrng =
        Netsim.Rng.create
          (params.mangle_seed
          lxor (node * 0x9E3779B1)
          lxor Bgp.Ipv4.to_int peer_addr)
      in
      let kinds = Array.of_list Netsim.Mangler.corpus_kinds in
      let base = Array.of_list inputs in
      List.init params.mangle_extra (fun i ->
          let kind = kinds.(i mod Array.length kinds) in
          let input = base.(i mod Array.length base) in
          let raw = Sym_handler.concretize view input in
          Netsim.Mangler.mutate mrng kind raw)
    end
  in
  let tasks =
    List.map (fun i -> `Input i) inputs @ List.map (fun raw -> `Mangled raw) mangled
  in
  let replay = function
    | `Input input ->
        replay_input k ~view ~peer_addr ~now input
    | `Mangled raw -> replay k ~peer_addr ~now ~crash_property:"codec-crash" raw
  in
  let replayed = List.map replay tasks in
  let faults = crash_faults @ List.concat_map fst replayed in
  let digests = List.map snd replayed in
  Telemetry.add_attr sp
    [ ("inputs", Telemetry.Json.Int (List.length inputs));
      ("mangled", Telemetry.Json.Int (List.length mangled));
      ("paths", Telemetry.Json.Int result.Concolic.Engine.distinct_paths);
      ( "derivation",
        Telemetry.Json.String (match derivation with `Memo -> "memo" | `Fresh -> "fresh") ) ];
  { pr_faults = Fault.dedupe faults;
    pr_digests = digests;
    pr_result = result;
    pr_shadow_runs = List.length tasks;
    pr_mangled = List.length mangled })

(* Exploration-level accounting; the per-round story lives in spans,
   these registry totals feed the end-of-run report and BENCH.json. *)
let m_inputs = lazy (Telemetry.Metrics.counter "explorer.inputs")
let m_shadow_runs = lazy (Telemetry.Metrics.counter "explorer.shadow_runs")
let m_mangled = lazy (Telemetry.Metrics.counter "explorer.mangled_inputs")
let m_crashes = lazy (Telemetry.Metrics.counter "explorer.crashes")
let m_faults = lazy (Telemetry.Metrics.counter "explorer.faults")
let m_snapshot_span =
  lazy
    (Telemetry.Metrics.histogram
       ~buckets:[| 100.; 1e3; 1e4; 1e5; 1e6; 1e7 |]
       "explorer.snapshot_span_us")

let m_clause_covered = lazy (Telemetry.Metrics.gauge "explorer.clause_covered")
let m_clause_universe = lazy (Telemetry.Metrics.gauge "explorer.clause_universe")

(* When a confuzz campaign has clause coverage enabled, every
   exploration refreshes the coverage gauges so live telemetry shows
   the frontier advancing, not just the final report. *)
let record_clause_coverage () =
  if Bgp.Clause_cov.enabled () then begin
    Telemetry.Metrics.set (Lazy.force m_clause_covered) (Bgp.Clause_cov.covered ());
    Telemetry.Metrics.set
      (Lazy.force m_clause_universe)
      (Bgp.Clause_cov.universe_size ())
  end

let explore_node ?(params = default_params) ~build ~cut ~gt ~node () =
  Telemetry.with_span "explore"
    ~attrs:[ ("node", Telemetry.Json.Int node) ]
  @@ fun xsp ->
  (* Step 1: consistent snapshot.  Under churn the cut may abort at
     its deadline; we then explore the nodes we did checkpoint (the
     initiator is always among them) and report the gap honestly. *)
  let cut_result =
    take_snapshot ?deadline:params.snapshot_deadline ~build ~cut ~node ()
  in
  let snapshot = Snapshot.Cut.snapshot_of cut_result in
  let stalled = Snapshot.Cut.stalled_of cut_result in
  let t0 = Unix.gettimeofday () in
  let now = Netsim.Engine.now build.Topology.Build.engine in
  let span =
    Netsim.Time.diff snapshot.Snapshot.Cut.completed_at
      snapshot.Snapshot.Cut.started_at
  in
  let cfg = (Topology.Build.speaker build node).Bgp.Speaker.sp_config () in
  let peers =
    List.filteri (fun i _ -> i < params.peers_per_node) cfg.Bgp.Config.neighbors
  in
  (* The memo carries verdicts across cuts, so only the speakers that
     changed since the last cut are checked here, on the pristine clone
     and at their captures; every replay of this cut starts from those
     captures and checks only the speakers it touches. *)
  let pristine = pristine ~params snapshot in
  ignore (Checks.record gt pristine);
  let base_faults, base_digests = baseline_results ~gt ~node ~now pristine in
  let k = check_cut ~params ~gt ~node snapshot in
  let merged =
    List.map
      (fun (n : Bgp.Config.neighbor) ->
        explore_peer k ~build ~peer_addr:n.Bgp.Config.addr)
      peers
  in
  let faults = base_faults @ List.concat_map (fun pr -> pr.pr_faults) merged in
  let digests = base_digests :: List.concat_map (fun pr -> pr.pr_digests) merged in
  let sum f = List.fold_left (fun acc pr -> acc + f pr) 0 merged in
  let inputs = sum (fun pr -> pr.pr_result.Concolic.Engine.inputs_executed) in
  let paths = sum (fun pr -> pr.pr_result.Concolic.Engine.distinct_paths) in
  let crashes = sum (fun pr -> List.length pr.pr_result.Concolic.Engine.crashes) in
  let shadows = sum (fun pr -> pr.pr_shadow_runs) in
  let mangled = sum (fun pr -> pr.pr_mangled) in
  let deduped = Fault.dedupe faults in
  Telemetry.Metrics.add (Lazy.force m_inputs) inputs;
  Telemetry.Metrics.add (Lazy.force m_shadow_runs) shadows;
  Telemetry.Metrics.add (Lazy.force m_mangled) mangled;
  Telemetry.Metrics.add (Lazy.force m_crashes) crashes;
  Telemetry.Metrics.add (Lazy.force m_faults) (List.length deduped);
  Telemetry.Histogram.observe
    (Lazy.force m_snapshot_span)
    (float_of_int span);
  record_clause_coverage ();
  Telemetry.add_attr xsp
    [ ("inputs", Telemetry.Json.Int inputs);
      ("faults", Telemetry.Json.Int (List.length deduped));
      ("partial", Telemetry.Json.Bool (stalled <> [])) ];
  { x_node = node;
    x_snapshot = snapshot;
    x_partial = stalled <> [];
    x_stalled = stalled;
    x_faults = deduped;
    x_digests = digests;
    x_inputs = inputs;
    x_shadow_runs = shadows;
    x_mangled = mangled;
    x_distinct_paths = paths;
    x_crashes = crashes;
    x_snapshot_span = span;
    x_wall_seconds = Unix.gettimeofday () -. t0 }

(* Headless single-shot replay for the triage minimizer: one snapshot,
   the baseline (state) checkers, and optionally one recorded concolic
   input against one session — no concolic derivation, no fuzzing, no
   fan-out.  This is what a delta-minimized repro runs instead of the
   full exploration haystack. *)
let replay_direct ?(params = default_params) ~build ~cut ~gt ~node
    ?(peer_index = 0) ?input () =
  Telemetry.with_span "direct_replay"
    ~attrs:[ ("node", Telemetry.Json.Int node) ]
  @@ fun _sp ->
  let cut_result =
    take_snapshot ?deadline:params.snapshot_deadline ~build ~cut ~node ()
  in
  let snapshot = Snapshot.Cut.snapshot_of cut_result in
  let now = Netsim.Engine.now build.Topology.Build.engine in
  (* The exploration path checks convergence on every shadow replay; a
     direct repro must too, or minimized policy-conflict scenarios
     would stop detecting.  The convergence run steps the same engine
     to the same end as [pristine], so one shadow serves both. *)
  let shadow, conv_faults =
    if not params.check_convergence then (pristine ~params snapshot, [])
    else begin
      let shadow = Snapshot.Store.clone snapshot in
      let verdicts = Checks.convergence ~budget:params.shadow_budget shadow in
      let faults =
        faults_of ~self:node ~now [ Checks.column Fault.Policy_conflict (Array.of_list verdicts) ]
      in
      (* Last node first: the order the stored repair baselines list. *)
      (shadow, List.rev faults)
    end
  in
  (* The checks read the memo and never write it: one replay would pay
     for a recording sweep it cannot amortize. *)
  let base_faults, _ = baseline_results ~gt ~node ~now shadow in
  let input_faults =
    match input with
    | None -> []
    | Some input -> (
        let cfg = (Topology.Build.speaker build node).Bgp.Speaker.sp_config () in
        match List.nth_opt cfg.Bgp.Config.neighbors peer_index with
        | None -> []
        | Some (peer : Bgp.Config.neighbor) ->
            let view = view_at snapshot ~node ~peer:peer.Bgp.Config.addr in
            let faults, _digests =
              replay_input
                (check_cut ~params ~gt ~node snapshot)
                ~view ~peer_addr:peer.Bgp.Config.addr ~now input
            in
            faults)
  in
  Fault.dedupe (base_faults @ conv_faults @ input_faults)
