(* The [par] section: exploration on the 27-node demo topology, plus a
   machine-readable BENCH.json that seeds the perf trajectory (micro
   ns/op, exploration throughput, solver-cache effectiveness).

   Determinism is asserted, not assumed: a second exploration of the
   same node must report the warm-up's faults, inputs and distinct
   paths. *)

type xrun = {
  xr_wall : float;
  xr_inputs : int;
  xr_shadow_runs : int;
  xr_paths : int;
  xr_faults : int;
}

let explore ~build ~gt ~node =
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let t0 = Unix.gettimeofday () in
  let x = Dice.Explorer.explore_node ~build ~cut ~gt ~node () in
  let wall = Unix.gettimeofday () -. t0 in
  { xr_wall = wall;
    xr_inputs = x.Dice.Explorer.x_inputs;
    xr_shadow_runs = x.Dice.Explorer.x_shadow_runs;
    xr_paths = x.Dice.Explorer.x_distinct_paths;
    xr_faults = List.length x.Dice.Explorer.x_faults }

(* JSON construction goes through Telemetry.Json + Benchio so the
   [scale] section's results in an existing BENCH.json survive a [par]
   rewrite (and vice versa). *)
module Json = Telemetry.Json

let micro_fields micro =
  let field pick (name, ns, words) =
    Option.map (fun v -> (name, Json.Float (Benchio.round2 v))) (pick ns words)
  in
  let timed = List.filter (fun (name, _, _) -> not (List.mem name Micro.heap_bound)) micro in
  ( Json.Obj (List.filter_map (field (fun ns _ -> ns)) timed),
    Json.Obj (List.filter_map (field (fun _ words -> words)) micro) )

let write_bench_json ~path ~micro ~run ~cache_hits ~cache_misses
    ~(orch : Dice.Orchestrator.summary) ~(adv : Dice.Orchestrator.summary)
    ~adv_counts:(mangled, dropped, duplicated, crashes) =
  let micro_ns, micro_words = micro_fields micro in
  let xrun r =
    Json.Obj
      [ ("wall_s", Json.Float (Benchio.round2 r.xr_wall));
        ("inputs", Json.Int r.xr_inputs);
        ("shadow_runs", Json.Int r.xr_shadow_runs);
        ("distinct_paths", Json.Int r.xr_paths);
        ("faults", Json.Int r.xr_faults);
        ("shadows_per_s",
         Json.Float (Benchio.round2 (float_of_int r.xr_shadow_runs /. r.xr_wall))) ]
  in
  Benchio.update ~path
    [ ("schema", Json.String "dice-bench/1");
      (* The hardware context the timings were taken on. *)
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("topology", Json.Obj [ ("name", Json.String "demo27"); ("nodes", Json.Int 27) ]);
      ("micro_ns_per_op", micro_ns);
      ("micro_minor_words_per_op", micro_words);
      ("exploration", Json.List [ xrun run ]);
      ("solver_cache",
       Json.Obj
         [ ("hits", Json.Int cache_hits);
           ("misses", Json.Int cache_misses);
           ("hit_rate",
            Json.Float
              (let total = cache_hits + cache_misses in
               if total = 0 then 0.
               else Benchio.round2 (float_of_int cache_hits /. float_of_int total))) ]);
      (* Supervision health of a short orchestrator run: a regression
         that starts failing or quarantining rounds shows up in the
         trajectory even when raw throughput is unchanged. *)
      ("orchestrator",
       Json.Obj
         [ ("rounds", Json.Int (List.length orch.Dice.Orchestrator.rounds));
           ("ok", Json.Int orch.Dice.Orchestrator.ok_rounds);
           ("degraded", Json.Int orch.Dice.Orchestrator.degraded_rounds);
           ("failed", Json.Int orch.Dice.Orchestrator.failed_rounds);
           ("quarantines", Json.Int (List.length orch.Dice.Orchestrator.quarantines));
           ("leaked_snapshots", Json.Int orch.Dice.Orchestrator.leaked_snapshots);
           ("faults", Json.Int (List.length orch.Dice.Orchestrator.faults)) ]);
      (* Adversarial health: the same deployment under wire-fault
         injection with a seeded fragile-decode bug.  The trajectory
         records whether the stack keeps absorbing codec crashes and
         reporting them as faults instead of failing rounds. *)
      ("adversary",
       Json.Obj
         [ ("rounds", Json.Int (List.length adv.Dice.Orchestrator.rounds));
           ("ok", Json.Int adv.Dice.Orchestrator.ok_rounds);
           ("degraded", Json.Int adv.Dice.Orchestrator.degraded_rounds);
           ("failed", Json.Int adv.Dice.Orchestrator.failed_rounds);
           ("mangled", Json.Int mangled);
           ("dropped", Json.Int dropped);
           ("duplicated", Json.Int duplicated);
           ("crashes_absorbed", Json.Int crashes);
           ("faults", Json.Int (List.length adv.Dice.Orchestrator.faults)) ]) ]

let run () =
  Tables.section "PAR: exploration on the 27-node demo topology";
  let graph = Topology.Demo27.graph in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let node = 3 in
  Concolic.Solver.clear_cache ();
  Concolic.Solver.reset_stats ();
  (* Warm-up exploration: fills code caches and the solver memo table
     the way a long-running online tester would be running. *)
  let warm = explore ~build ~gt ~node in
  let r = explore ~build ~gt ~node in
  Tables.print
    ~title:"shadow replays (same node, same snapshot state, one explore_node)"
    ~header:[ "wall s"; "shadows"; "shadows/s" ]
    [ [ Printf.sprintf "%.3f" r.xr_wall;
        string_of_int r.xr_shadow_runs;
        Printf.sprintf "%.1f" (float_of_int r.xr_shadow_runs /. r.xr_wall) ] ];
  (* Exploring the same state twice must find the same thing. *)
  if
    r.xr_inputs <> warm.xr_inputs || r.xr_paths <> warm.xr_paths
    || r.xr_faults <> warm.xr_faults
  then
    failwith
      (Printf.sprintf
         "par: a second exploration diverged from the first (inputs %d/%d, \
          paths %d/%d, faults %d/%d)"
         r.xr_inputs warm.xr_inputs r.xr_paths warm.xr_paths r.xr_faults
         warm.xr_faults);
  Tables.note "determinism: both explorations agree on inputs/paths/faults\n";
  let solver_st = Concolic.Solver.stats () in
  let hits = solver_st.Concolic.Solver.cache_hits in
  let misses = solver_st.Concolic.Solver.cache_misses in
  Tables.note "solver cache: %d hits / %d misses (%.1f%% hit rate)\n" hits misses
    (let t = hits + misses in
     if t = 0 then 0. else 100. *. float_of_int hits /. float_of_int t);
  (* A short supervised run so the trajectory records orchestration
     health (ok/degraded/failed, quarantines, leaks), not just speed. *)
  let orch = Dice.Orchestrator.run ~build ~gt ~rounds:3 () in
  Tables.note "orchestrator: %d ok / %d degraded / %d failed, %d quarantine(s), %d leak(s)\n"
    orch.Dice.Orchestrator.ok_rounds orch.Dice.Orchestrator.degraded_rounds
    orch.Dice.Orchestrator.failed_rounds
    (List.length orch.Dice.Orchestrator.quarantines)
    orch.Dice.Orchestrator.leaked_snapshots;
  (* Adversarial round: mangle the live wire, seed a fragile decoder,
     absorb the resulting crashes, and make sure they surface as
     first-class programming-error faults with zero failed rounds. *)
  let net = build.Topology.Build.net in
  Netsim.Network.set_crash_policy net
    (Netsim.Network.Absorb { restart_after = Some (Netsim.Time.span_sec 2.) });
  let mangler = Netsim.Mangler.create ~seed:0xAD5E ~rate:0.1 () in
  Netsim.Mangler.install mangler net;
  let sp = Topology.Build.speaker build node in
  sp.Bgp.Speaker.sp_set_bugs
    { (sp.Bgp.Speaker.sp_bugs ()) with Bgp.Router.fragile_decode = true };
  let adv_params =
    { Dice.Explorer.default_params with
      snapshot_deadline = Some (Netsim.Time.span_sec 30.);
      mangle_extra = 6;
      mangle_seed = 0x5EED }
  in
  (* Both rounds target the fragile node, and the 20 s inter-round gap
     spans the 30 s keepalive cadence so live traffic actually crosses
     the mangled wire. *)
  let adv =
    Dice.Orchestrator.run ~params:adv_params
      ~interval:(Netsim.Time.span_sec 20.) ~nodes:[ node ] ~build ~gt ~rounds:2 ()
  in
  Netsim.Mangler.remove net;
  let ((mangled, dropped, duplicated, _) as _totals) = Netsim.Mangler.totals () in
  let crashes = List.length (Netsim.Network.crashes net) in
  Tables.note
    "adversary: %d mangled / %d dropped / %d duplicated, %d crash(es) absorbed, \
     %d fault(s), %d failed round(s)\n"
    mangled dropped duplicated crashes
    (List.length adv.Dice.Orchestrator.faults)
    adv.Dice.Orchestrator.failed_rounds;
  Tables.note "collecting micro-benchmark baselines for BENCH.json...\n";
  let micro = Micro.results () in
  write_bench_json ~path:"BENCH.json" ~micro ~run:r ~cache_hits:hits
    ~cache_misses:misses ~orch ~adv ~adv_counts:(mangled, dropped, duplicated, crashes);
  Tables.note "wrote BENCH.json\n"
