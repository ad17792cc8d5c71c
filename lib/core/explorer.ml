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
  x_digests : Privacy.digest list;
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

let verdicts_to_results ~self ~now ?input ~checker_class verdicts : Fault.t list * Privacy.digest list =
  List.fold_left
    (fun (faults, digests) (v : Checks.verdict) ->
      if v.Checks.v_node = self then
        if v.Checks.v_ok then (faults, digests)
        else
          ( Fault.make ?input ~at:now ~node:v.Checks.v_node
              ~property:v.Checks.v_property checker_class v.Checks.v_evidence
            :: faults,
            digests )
      else
        let d =
          Privacy.digest ~node:v.Checks.v_node ~property:v.Checks.v_property
            ~ok:v.Checks.v_ok ~evidence:v.Checks.v_evidence
        in
        let faults =
          if v.Checks.v_ok then faults
          else
            (* Only the digest crossed the domain boundary: the report
               carries no remote evidence. *)
            Fault.make ?input ~at:now ~node:v.Checks.v_node
              ~property:v.Checks.v_property checker_class
              "remote check digest reported a violation"
            :: faults
        in
        (faults, d :: digests))
    ([], []) verdicts

(* [verdicts_to_results] over (class, verdicts) groups, in group then
   verdict order. *)
let results_of ~self ~now ?input groups =
  let faults, digests =
    List.split
      (List.map
         (fun (checker_class, verdicts) ->
           let faults, digests =
             verdicts_to_results ~self ~now ?input ~checker_class verdicts
           in
           (List.rev faults, List.rev digests))
         groups)
  in
  (List.concat faults, List.concat digests)

(* The unperturbed clone of the snapshot, quiesced: spawned once per
   cut for the baseline checks and, when exploring, the verdict memo. *)
let pristine ~params snapshot =
  let sh = Snapshot.Store.spawn snapshot in
  ignore (Snapshot.Store.run_to_quiescence ~max_events:params.shadow_budget sh);
  sh

(* [Checks.run_memo] as (class, verdicts) groups for [results_of]. *)
let memo_groups ~gt scope shadow =
  List.map
    (fun ((c : Checks.checker), verdicts) -> (c.Checks.fault_class, verdicts))
    (Checks.run_memo gt scope shadow)

(* Baseline (state) properties: checked once per exploration against
   the pristine clone.  Hoisted out of the per-peer loop — every peer
   saw the same snapshot, so the per-peer recomputation was pure
   waste. *)
let baseline_results ~gt ~node ~now pristine =
  results_of ~self:node ~now (memo_groups ~gt Checks.Baseline pristine)

(* Replay one raw byte string over its own fresh clone and run the
   per-input property checkers, reusing the memo's verdicts for every
   speaker the replay left as it was.  Self-contained and free of
   shared mutable state: the shadow owns its engine, network and
   speakers, everything reachable from [snapshot] is immutable, and
   the memo is only read.
   [crash_property] classifies a [Crash] escaping the shadow:
   "handler-crash" for concretized concolic inputs, "codec-crash" for
   mangled wire bytes. *)
let replay_raw ~params ~gt ~snapshot ~node ~peer_addr ~now ?input
    ~crash_property raw =
  Telemetry.with_span "shadow_replay" (fun _sp ->
  let shadow = Snapshot.Store.spawn snapshot in
  let target = Snapshot.Store.speaker shadow node in
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
  let conv_verdicts =
    if params.check_convergence then
      Checks.convergence ~budget:params.shadow_budget shadow
    else begin
      ignore (Snapshot.Store.run_to_quiescence ~max_events:params.shadow_budget shadow);
      []
    end
  in
  let faults, digests =
    results_of ~self:node ~now ?input
      (memo_groups ~gt Checks.Per_input shadow @ [ (Fault.Policy_conflict, conv_verdicts) ])
  in
  (crash_faults @ faults, digests))

let replay_input ~params ~gt ~view ~snapshot ~node ~peer_addr ~now input =
  replay_raw ~params ~gt ~snapshot ~node ~peer_addr ~now ~input
    ~crash_property:"handler-crash"
    (Sym_handler.concretize view input)

(* The instrumented handler's view of [node]'s session with [peer], read
   from the node's checkpoint: the snapshot's consistent state. *)
let view_at (snapshot : Snapshot.Cut.snapshot) ~node ~peer =
  let cp = List.assoc node snapshot.Snapshot.Cut.checkpoints in
  Sym_handler.view_of_capture cp.Snapshot.Checkpoint.image ~peer

type peer_result = {
  pr_faults : Fault.t list;  (* deduped, canonical input order *)
  pr_digests : Privacy.digest list;
  pr_result : Sym_handler.outcome Concolic.Engine.result;
  pr_shadow_runs : int;
  pr_mangled : int;
}

let explore_peer ~params ~gt ~build ~snapshot ~node ~peer_addr =
  Telemetry.with_span "peer"
    ~attrs:[ ("node", Telemetry.Json.Int node);
             ("peer", Telemetry.Json.String (Bgp.Ipv4.to_string peer_addr)) ]
    (fun sp ->
  let now = Netsim.Engine.now build.Topology.Build.engine in
  let view = view_at snapshot ~node ~peer:peer_addr in
  (* Step 2: derive inputs by concolic execution. *)
  let result =
    Concolic.Engine.explore ~limits:params.limits ~seeds:(Sym_handler.seeds view)
      (Sym_handler.run view)
  in
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
        replay_input ~params ~gt ~view ~snapshot ~node ~peer_addr ~now input
    | `Mangled raw ->
        replay_raw ~params ~gt ~snapshot ~node ~peer_addr ~now
          ~crash_property:"codec-crash" raw
  in
  let replayed = List.map replay tasks in
  let faults = crash_faults @ List.concat_map fst replayed in
  let digests = List.concat_map snd replayed in
  Telemetry.add_attr sp
    [ ("inputs", Telemetry.Json.Int (List.length inputs));
      ("mangled", Telemetry.Json.Int (List.length mangled));
      ("paths", Telemetry.Json.Int result.Concolic.Engine.distinct_paths) ];
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
  (* Every replay of this cut starts from the same snapshot, so it
     shares the pristine clone's verdicts; the memo carries them
     across cuts, so only the speakers that changed since the last
     cut are checked here.  Recorded before the replays, which only
     read it. *)
  let pristine = pristine ~params snapshot in
  ignore (Checks.record gt pristine);
  let base_faults, base_digests = baseline_results ~gt ~node ~now pristine in
  let merged =
    List.map
      (fun (n : Bgp.Config.neighbor) ->
        explore_peer ~params ~gt ~build ~snapshot ~node
          ~peer_addr:n.Bgp.Config.addr)
      peers
  in
  let faults = base_faults @ List.concat_map (fun pr -> pr.pr_faults) merged in
  let digests = base_digests @ List.concat_map (fun pr -> pr.pr_digests) merged in
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
      let shadow = Snapshot.Store.spawn snapshot in
      let verdicts = Checks.convergence ~budget:params.shadow_budget shadow in
      let faults, _ =
        verdicts_to_results ~self:node ~now ~checker_class:Fault.Policy_conflict
          verdicts
      in
      (shadow, faults)
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
              replay_input ~params ~gt ~view ~snapshot ~node ~peer_addr:peer.Bgp.Config.addr ~now input
            in
            faults)
  in
  Fault.dedupe (base_faults @ conv_faults @ input_faults)
