(* The experiment harness: regenerates every figure and evaluation
   claim of the paper (see DESIGN.md §3 and EXPERIMENTS.md).

   F1 — Figure 1: DiCE executing over 27 BGP routers.
   F2 — Figure 2: snapshot -> isolated exploration over clones.
   T1 — §3: detection of the three fault classes.
   T2 — §3: "low overhead".
   T3 — §2 insights: exploration efficiency, grammar-fuzz validity.
   T4 — §3: systematic exploration of the route-selection outcome. *)

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let deploy_generated ~seed ~t1 ~transit ~stub =
  let params =
    { Topology.Generate.default_params with n_tier1 = t1; n_transit = transit; n_stub = stub }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create seed) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  (graph, build)

let fmt_time span = Format.asprintf "%a" Netsim.Time.pp (Netsim.Time.of_us (max 0 span))

(* F1 and T1 run through the one deployment path, [Triage.Scenario]:
   seed 42, no churn or mangler, default exploration limits. *)
let scenario ?inject ?(settle = 0.) topo =
  { Triage.Scenario.dp_topo = topo;
    dp_keep = None;
    dp_seed = 42;
    dp_inject = inject;
    dp_settle_sec = settle;
    dp_churn = [];
    dp_mangle = None;
    dp_confuzz = [];
    dp_cascade = false;
    dp_mode = Explore Triage.Scenario.default_exploration }

(* [on_deployed] sees the configured live system before it settles;
   the result is the run's summary and the wall time of the
   exploration alone. *)
let run_scenario ?until ~on_deployed d =
  let result = ref None in
  let around_explore _ explore =
    let summary, wall = time_wall explore in
    result := Some (summary, wall);
    summary
  in
  let o =
    Triage.Scenario.run_observed ?until ~on_deployed ~around_explore
      (Triage.Scenario.Deploy d)
  in
  match o.Triage.Scenario.o_error with Some e -> failwith e | None -> Option.get !result

(* ------------------------------------------------------------------ *)
(* F1                                                                  *)
(* ------------------------------------------------------------------ *)

let f1 () =
  Tables.section "F1 / Figure 1: DiCE over 27 BGP routers, Internet-like conditions";
  let d = scenario Triage.Scenario.Demo27 in
  let graph = Triage.Scenario.graph_of d in
  Tables.note "topology: %s\n" (Topology.Render.summary_line graph);
  let t0 = Unix.gettimeofday () in
  let on_deployed build =
    Tables.note "live convergence: %d routes, %d sessions, %d messages, %.2fs wall\n"
      (Topology.Build.total_loc_routes build)
      (Topology.Build.established_sessions build)
      (Netsim.Network.messages_sent build.Topology.Build.net)
      (Unix.gettimeofday () -. t0)
  in
  let summary, wall = run_scenario ~on_deployed d in
  let per_node =
    List.filter_map
      (fun (r : Dice.Orchestrator.round) ->
        match Dice.Orchestrator.round_exploration r with
        | None -> None
        | Some x ->
            Some
              ( x.Dice.Explorer.x_node,
                { Topology.Render.label =
                    Printf.sprintf "%d in / %d paths" x.Dice.Explorer.x_inputs
                      x.Dice.Explorer.x_distinct_paths;
                  highlight = x.Dice.Explorer.x_faults <> [] } ))
      summary.Dice.Orchestrator.rounds
  in
  print_string (Topology.Render.ascii ~annotations:per_node graph);
  Tables.note
    "DiCE swept all %d nodes: %d handler executions, %d shadow clones, %d faults, %.2fs wall\n"
    (List.length summary.Dice.Orchestrator.rounds)
    summary.Dice.Orchestrator.total_inputs summary.Dice.Orchestrator.total_shadow_runs
    (List.length summary.Dice.Orchestrator.faults)
    wall;
  Tables.note "(healthy deployment: the fault count above should be 0)\n"

(* ------------------------------------------------------------------ *)
(* F2                                                                  *)
(* ------------------------------------------------------------------ *)

let f2 () =
  Tables.section "F2 / Figure 2: snapshot and isolated exploration over clones";
  let _, build = deploy_generated ~seed:2 ~t1:1 ~transit:2 ~stub:2 in
  let node = 1 in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  Tables.note "1. node %d chosen as explorer; triggering snapshot\n" node;
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node ()) in
  Tables.note
    "2. consistent cut: %d checkpoints, %d in-flight messages, %d markers, %s of simulated time\n"
    (List.length snap.Snapshot.Cut.checkpoints)
    (Snapshot.Cut.in_flight_total snap)
    snap.Snapshot.Cut.control_messages
    (fmt_time
       (Netsim.Time.diff snap.Snapshot.Cut.completed_at snap.Snapshot.Cut.started_at));
  let live_before = Topology.Build.loc_rib_snapshot build in
  let live_msgs = Netsim.Network.messages_sent build.Topology.Build.net in
  let speaker = Topology.Build.speaker build node in
  let peer = (List.hd (speaker.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors).Bgp.Config.addr in
  let view = Dice.Sym_handler.view_of_speaker speaker ~peer in
  List.iteri
    (fun i input ->
      let shadow = Snapshot.Store.spawn snap in
      let raw = Dice.Sym_handler.concretize view input in
      (Snapshot.Store.speaker shadow node).Bgp.Speaker.sp_process_raw
        ~from_node:(Bgp.Router.node_of_addr peer) raw;
      let quiesced = Snapshot.Store.run_to_quiescence shadow.Snapshot.Store.sh_clone in
      Tables.note "%d. explored input %d over cloned snapshot %d (quiesced=%b, fp=%08x)\n"
        (3 + i) (i + 1) (i + 1) quiesced
        (Snapshot.Store.loc_rib_fingerprint shadow land 0xFFFFFFFF))
    (Dice.Sym_handler.seeds view);
  let intact =
    Topology.Build.loc_rib_snapshot build = live_before
    && Netsim.Network.messages_sent build.Topology.Build.net = live_msgs
  in
  Tables.note "isolation: live system untouched by all three explorations = %b\n" intact

(* ------------------------------------------------------------------ *)
(* T1                                                                  *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_name : string;
  t1_key : string;  (** its entry in BENCH.json's [detection] section *)
  t1_class : Dice.Fault.fault_class;
  t1_deploy : Triage.Scenario.deploy;
}

(* Inject, settle 10 s, then explore until the class shows up, for at
   most two passes over the explorer nodes. *)
let t1_deploy ?(nodes = []) topo inject =
  let d = scenario ~inject ~settle:10. topo in
  let explorers =
    if nodes = [] then Topology.Graph.size (Triage.Scenario.graph_of d) else List.length nodes
  in
  { d with
    dp_mode =
      Triage.Scenario.Explore
        { Triage.Scenario.default_exploration with
          ex_nodes = nodes; ex_rounds = 2 * explorers } }

let t1 () =
  Tables.section "T1: detection of the three fault classes";
  let random r_seed =
    Triage.Scenario.Random { r_seed; r_tier1 = 1; r_transit = 3; r_stub = 5 }
  in
  let scenarios =
    [ { t1_name = "prefix hijack (operator mistake)";
        t1_key = "hijack-9";
        t1_class = Dice.Fault.Operator_mistake;
        t1_deploy = t1_deploy (random 11) (Dice.Inject.Prefix_hijack { at = 8; victim = 5 }) };
      { t1_name = "prefix hijack, 27-node demo topology";
        t1_key = "hijack-27";
        t1_class = Dice.Fault.Operator_mistake;
        t1_deploy =
          t1_deploy Triage.Scenario.Demo27 (Dice.Inject.Prefix_hijack { at = 21; victim = 11 }) };
      { t1_name = "bogus netmask announcement (operator mistake)";
        t1_key = "netmask-9";
        t1_class = Dice.Fault.Operator_mistake;
        t1_deploy = t1_deploy (random 12) (Dice.Inject.Bogus_netmask { at = 6 }) };
      { t1_name = "BAD GADGET dispute wheel (policy conflict)";
        t1_key = "gadget-12";
        t1_class = Dice.Fault.Policy_conflict;
        t1_deploy =
          t1_deploy ~nodes:Topology.Gadget.wheel Triage.Scenario.Gadget
            (Dice.Inject.Policy_dispute
               { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim }) };
      { t1_name = "loop-check bypass (programming error)";
        t1_key = "loop-check-9";
        t1_class = Dice.Fault.Programming_error;
        t1_deploy = t1_deploy (random 13) (Dice.Inject.Loop_check_bug { at = 2 }) };
      { t1_name = "community handler crash (programming error)";
        t1_key = "crash-9";
        t1_class = Dice.Fault.Programming_error;
        t1_deploy =
          t1_deploy (random 14)
            (Dice.Inject.Crash_bug { at = 1; community = Bgp.Community.make 64999 13 }) } ]
  in
  (* Time to first detection, gated by bench_check: the deterministic
     columns exactly, wall time within the deploy margin. *)
  let module J = Telemetry.Json in
  let rows, entries =
    List.split
      (List.map
         (fun s ->
           let injected_at = ref Netsim.Time.zero in
           let on_deployed build =
             injected_at := Netsim.Engine.now build.Topology.Build.engine
           in
           let summary, wall = run_scenario ~until:s.t1_class ~on_deployed s.t1_deploy in
           let latency =
             List.find_opt (fun (c, _, _) -> c = s.t1_class)
               summary.Dice.Orchestrator.first_detection
             |> Option.map (fun (_, t, _) -> Netsim.Time.diff t !injected_at)
           in
           let rounds = List.length summary.Dice.Orchestrator.rounds in
           let inputs = summary.Dice.Orchestrator.total_inputs in
           ( [ s.t1_name;
               string_of_int (Topology.Graph.size (Triage.Scenario.graph_of s.t1_deploy));
               Dice.Fault.class_to_string s.t1_class;
               (if latency = None then "NO" else "yes");
               string_of_int rounds;
               string_of_int inputs;
               Option.fold ~none:"-" ~some:fmt_time latency;
               Printf.sprintf "%.2f" wall ],
             ( s.t1_key,
               J.Obj
                 [ ("detected", J.Bool (latency <> None));
                   ("rounds", J.Int rounds);
                   ("inputs", J.Int inputs);
                   ("sim_latency_us", Option.fold ~none:J.Null ~some:(fun l -> J.Int l) latency);
                   ("wall_s", J.Float (Benchio.round2 wall)) ] ) ))
         scenarios)
  in
  Tables.print ~title:"fault detection (paper: 'quickly detects faults' of all three classes)"
    ~header:
      [ "scenario"; "ASes"; "class"; "detected"; "rounds"; "inputs"; "sim latency";
        "wall s" ]
    rows;
  Benchio.update ~path:"BENCH.json" [ ("detection", J.Obj entries) ]

(* ------------------------------------------------------------------ *)
(* T2                                                                  *)
(* ------------------------------------------------------------------ *)

let t2 () =
  Tables.section "T2: overhead (paper: 'low overhead')";
  (* a. checkpoint cost vs state size *)
  let _, build = deploy_generated ~seed:15 ~t1:1 ~transit:2 ~stub:3 in
  let sp = Topology.Build.speaker build 1 in
  let grow target =
    let current = Bgp.Rib.total_adj_in (sp.Bgp.Speaker.sp_rib ()) in
    for i = current to target - 1 do
      sp.Bgp.Speaker.sp_inject_update ~from:(Bgp.Router.addr_of_node 0)
        { Bgp.Msg.withdrawn = [];
          attrs =
            Some
              (Bgp.Attr.make ~origin:Bgp.Attr.Igp
                 ~as_path:[ Bgp.As_path.Seq [ Topology.Gao_rexford.asn_of_node 0 ] ]
                 ~next_hop:(Bgp.Router.addr_of_node 0) ());
          nlri = [ Bgp.Prefix.make (Bgp.Ipv4.of_octets 203 (i lsr 8) (i land 255) 0) 24 ] }
    done
  in
  let rows =
    List.map
      (fun size ->
        grow size;
        let n = 200_000 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to n do
          ignore (Snapshot.Checkpoint.take ~at:Netsim.Time.zero sp)
        done;
        let dt = Unix.gettimeofday () -. t0 in
        [ string_of_int (Snapshot.Checkpoint.route_count (Snapshot.Checkpoint.take ~at:Netsim.Time.zero sp));
          Printf.sprintf "%.0f" (dt /. float_of_int n *. 1e9) ])
      [ 100; 1000; 5000 ]
  in
  Tables.print ~title:"a. checkpoint cost vs routing-state size (persistent state: O(1))"
    ~header:[ "routes in state"; "ns per checkpoint" ] rows;
  (* b. snapshot (cut) latency and message overhead vs topology size *)
  let rows =
    List.map
      (fun (name, graph) ->
        let build = Topology.Build.deploy graph in
        Topology.Build.start_all build;
        assert (Topology.Build.converge build);
        let cut =
          Snapshot.Cut.create
            ~speakers:(fun id -> Topology.Build.speaker build id)
            build.Topology.Build.net
        in
        let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()) in
        [ name;
          string_of_int (Topology.Graph.size graph);
          fmt_time
            (Netsim.Time.diff snap.Snapshot.Cut.completed_at snap.Snapshot.Cut.started_at);
          string_of_int snap.Snapshot.Cut.control_messages;
          string_of_int (Snapshot.Cut.in_flight_total snap) ])
      [ ("9-AS", Topology.Generate.generate
           ~params:{ Topology.Generate.default_params with n_tier1 = 1; n_transit = 3; n_stub = 5 }
           (Netsim.Rng.create 16));
        ("27-AS demo", Topology.Demo27.graph);
        ("54-AS", Topology.Generate.generate
           ~params:{ Topology.Generate.default_params with n_tier1 = 3; n_transit = 16; n_stub = 35 }
           (Netsim.Rng.create 17)) ]
  in
  Tables.print ~title:"b. consistent-cut latency and marker overhead vs topology size"
    ~header:[ "topology"; "ASes"; "cut latency (sim)"; "markers"; "in-flight msgs" ] rows;
  (* c. live interference: message counts with and without DiCE rounds *)
  let live_messages with_dice =
    let graph = Topology.Demo27.graph in
    let build = Topology.Build.deploy graph in
    Topology.Build.start_all build;
    assert (Topology.Build.converge build);
    let gt = Dice.Checks.ground_truth_of_graph graph in
    let before = Netsim.Network.messages_sent build.Topology.Build.net in
    let t_before = Netsim.Engine.now build.Topology.Build.engine in
    if with_dice then
      ignore (Dice.Orchestrator.run ~build ~gt ~rounds:5 ())
    else Topology.Build.run_for build (Netsim.Time.span_sec 25.);
    let span = Netsim.Time.diff (Netsim.Engine.now build.Topology.Build.engine) t_before in
    let msgs = Netsim.Network.messages_sent build.Topology.Build.net - before in
    (msgs, span)
  in
  let base_msgs, base_span = live_messages false in
  let dice_msgs, dice_span = live_messages true in
  Tables.print ~title:"c. live message overhead of running DiCE alongside the system"
    ~header:[ "mode"; "sim time"; "live messages"; "msgs/sim-s" ]
    [ [ "baseline (no DiCE)"; fmt_time base_span; string_of_int base_msgs;
        Printf.sprintf "%.1f" (float_of_int base_msgs /. (float_of_int base_span /. 1e6)) ];
      [ "with DiCE (5 rounds)"; fmt_time dice_span; string_of_int dice_msgs;
        Printf.sprintf "%.1f" (float_of_int dice_msgs /. (float_of_int dice_span /. 1e6)) ] ];
  (* d. exploration throughput *)
  let graph, build = deploy_generated ~seed:18 ~t1:1 ~transit:3 ~stub:5 in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let x, wall =
    time_wall (fun () -> Dice.Explorer.explore_node ~build ~cut ~gt ~node:1 ())
  in
  Tables.print ~title:"d. exploration throughput (one node, one session)"
    ~header:[ "handler executions"; "shadow clones"; "wall s"; "inputs/s" ]
    [ [ string_of_int x.Dice.Explorer.x_inputs;
        string_of_int x.Dice.Explorer.x_shadow_runs;
        Printf.sprintf "%.2f" wall;
        Printf.sprintf "%.0f" (float_of_int x.Dice.Explorer.x_shadow_runs /. wall) ] ]

(* ------------------------------------------------------------------ *)
(* T3                                                                  *)
(* ------------------------------------------------------------------ *)

let t3 () =
  Tables.section "T3: exploration efficiency (concolic coverage, fuzz validity)";
  let graph = Topology.Demo27.graph in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  ignore graph;
  let node = 3 in
  let speaker = Topology.Build.speaker build node in
  let peer = (List.hd (speaker.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors).Bgp.Config.addr in
  let view = Dice.Sym_handler.view_of_speaker speaker ~peer in
  Concolic.Solver.reset_stats ();
  let rows =
    List.map
      (fun budget ->
        let limits =
          { Concolic.Engine.default_limits with Concolic.Engine.max_inputs = budget }
        in
        let r =
          Concolic.Engine.explore ~limits ~seeds:(Dice.Sym_handler.seeds view)
            (Dice.Sym_handler.run view)
        in
        [ string_of_int budget;
          string_of_int r.Concolic.Engine.inputs_executed;
          string_of_int r.Concolic.Engine.distinct_paths;
          string_of_int r.Concolic.Engine.solver_calls;
          string_of_int r.Concolic.Engine.solver_sat ])
      [ 10; 20; 40; 80; 160 ]
  in
  Tables.print
    ~title:"a. concolic path discovery vs input budget (one transit router's import pipeline)"
    ~header:[ "budget"; "executed"; "distinct paths"; "solver calls"; "sat" ]
    rows;
  (let st = Concolic.Solver.stats () in
   Tables.note "solver totals: sat=%d unsat=%d unknown=%d nodes=%d cache hits=%d misses=%d\n"
     st.Concolic.Solver.solved_sat st.Concolic.Solver.solved_unsat
     st.Concolic.Solver.solved_unknown st.Concolic.Solver.search_nodes
     st.Concolic.Solver.cache_hits st.Concolic.Solver.cache_misses);
  (* b. grammar fuzz validity *)
  let rng = Netsim.Rng.create 19 in
  let n = 2000 in
  let inputs = Dice.Sym_handler.fuzz_inputs view rng n in
  let valid =
    List.length
      (List.filter
         (fun input ->
           match Bgp.Wire.decode (Dice.Sym_handler.concretize view input) with
           | Ok _ -> true
           | Error _ -> false)
         inputs)
  in
  Tables.print ~title:"b. grammar-based fuzzing produces valid protocol inputs (insight iii)"
    ~header:[ "fuzzed updates"; "wire-valid"; "validity %" ]
    [ [ string_of_int n; string_of_int valid;
        Printf.sprintf "%.1f" (100. *. float_of_int valid /. float_of_int n) ] ]

(* ------------------------------------------------------------------ *)
(* T4                                                                  *)
(* ------------------------------------------------------------------ *)

let t4 () =
  Tables.section
    "T4: systematic exploration of the route-selection outcome (symbolic most-preferred)";
  (* A router with several concurrent candidates: the gadget victim has
     three providers all announcing every sibling prefix. *)
  let graph = Topology.Gadget.embedded () in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  ignore graph;
  let node = Topology.Gadget.victim in
  let speaker = Topology.Build.speaker build node in
  let target = Topology.Gao_rexford.prefix_of_node 6 in
  let candidates = Bgp.Rib.candidates target (speaker.Bgp.Speaker.sp_rib ()) in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node ()) in
  (* Explore over every session of the victim: each peer can displace
     the selection its own way. *)
  let outcomes = Hashtbl.create 8 in
  let totals = ref (0, 0, 0) in
  List.iter
    (fun (n : Bgp.Config.neighbor) ->
      let peer = n.Bgp.Config.addr in
      let view = Dice.Sym_handler.view_of_speaker speaker ~peer in
      let r =
        Concolic.Engine.explore
          ~limits:{ Concolic.Engine.default_limits with Concolic.Engine.max_inputs = 60 }
          ~seeds:
            ([ ("nlri_a", 192); ("nlri_b", 0); ("nlri_c", 6); ("nlri_len", 24) ]
            :: Dice.Sym_handler.seeds view)
          (Dice.Sym_handler.run view)
      in
      List.iter
        (fun (run : _ Concolic.Engine.run) ->
          let shadow = Snapshot.Store.spawn snap in
          let raw = Dice.Sym_handler.concretize view run.Concolic.Engine.run_input in
          (Snapshot.Store.speaker shadow node).Bgp.Speaker.sp_process_raw
            ~from_node:(Bgp.Router.node_of_addr peer) raw;
          ignore (Snapshot.Store.run_to_quiescence shadow.Snapshot.Store.sh_clone);
          let via =
            match
              Bgp.Prefix_trie.find target
                (Bgp.Speaker.loc_rib (Snapshot.Store.speaker shadow node))
            with
            | Some route ->
                Bgp.Ipv4.to_string route.Bgp.Rib.source.Bgp.Rib.peer_addr
            | None -> "(unreachable)"
          in
          Hashtbl.replace outcomes via ())
        r.Concolic.Engine.runs;
      let won =
        List.length
          (List.filter
             (fun (run : _ Concolic.Engine.run) ->
               match run.Concolic.Engine.run_outcome with
               | Concolic.Engine.Value (Dice.Sym_handler.Accepted { preferred = true }) ->
                   true
               | _ -> false)
             r.Concolic.Engine.runs)
      in
      let a, b, c = !totals in
      totals :=
        ( a + r.Concolic.Engine.inputs_executed,
          b + r.Concolic.Engine.distinct_paths,
          c + won ))
    (speaker.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors;
  let inputs, paths, preferred_splits = !totals in
  Tables.print
    ~title:"decision-process outcomes reached by exploration (victim router, all 3 sessions)"
    ~header:
      [ "candidates"; "inputs executed"; "distinct paths"; "selection outcomes";
        "inputs that won selection" ]
    [ [ string_of_int (List.length candidates);
        string_of_int inputs;
        string_of_int paths;
        string_of_int (Hashtbl.length outcomes);
        string_of_int preferred_splits ] ];
  Tables.note "outcomes: %s\n"
    (String.concat ", " (Hashtbl.fold (fun k () acc -> k :: acc) outcomes []))

(* ------------------------------------------------------------------ *)
(* T5: heterogeneity                                                   *)
(* ------------------------------------------------------------------ *)

let t5 () =
  Tables.section "T5: heterogeneous deployment (two independent implementations)";
  let graph = Topology.Demo27.graph in
  let sparrow_nodes =
    List.filter (fun i -> i mod 3 = 1) (Topology.Graph.node_ids graph)
  in
  let build = Topology.Build.deploy ~sparrow_nodes graph in
  Topology.Build.start_all build;
  let converged, wall = time_wall (fun () -> Topology.Build.converge build) in
  Tables.print ~title:"a. mixed 27-AS deployment (bird-like + sparrow)"
    ~header:[ "bird-like"; "sparrow"; "converged"; "routes"; "sessions"; "wall s" ]
    [ [ string_of_int (27 - List.length sparrow_nodes);
        string_of_int (List.length sparrow_nodes);
        string_of_bool converged;
        string_of_int (Topology.Build.total_loc_routes build);
        string_of_int (Topology.Build.established_sessions build);
        Printf.sprintf "%.2f" wall ] ];
  (* DiCE explores one node of each implementation; faults must be 0. *)
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let rows =
    List.map
      (fun node ->
        let cut =
          Snapshot.Cut.create
            ~speakers:(fun id -> Topology.Build.speaker build id)
            build.Topology.Build.net
        in
        let x = Dice.Explorer.explore_node ~build ~cut ~gt ~node () in
        [ string_of_int node;
          (Topology.Build.speaker build node).Bgp.Speaker.sp_impl;
          string_of_int x.Dice.Explorer.x_inputs;
          string_of_int x.Dice.Explorer.x_distinct_paths;
          string_of_int (List.length x.Dice.Explorer.x_faults) ])
      [ 3; 4 ]
  in
  Tables.print ~title:"b. exploration is implementation-agnostic"
    ~header:[ "node"; "implementation"; "inputs"; "paths"; "faults" ] rows

(* ------------------------------------------------------------------ *)
(* T6: ablations                                                       *)
(* ------------------------------------------------------------------ *)

let t6 () =
  Tables.section "T6: ablations (design choices called out in DESIGN.md)";
  (* a. input derivation: concolic vs grammar fuzz for reaching a
     seeded crash bug. *)
  let graph, build = deploy_generated ~seed:33 ~t1:1 ~transit:2 ~stub:3 in
  ignore graph;
  let node = 1 in
  let poison = Bgp.Community.make 64997 5 in
  let sp = Topology.Build.speaker build node in
  sp.Bgp.Speaker.sp_set_bugs
    { Bgp.Router.no_bugs with Bgp.Router.crash_community = Some poison };
  let peer = (List.hd (sp.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors).Bgp.Config.addr in
  let view = Dice.Sym_handler.view_of_speaker sp ~peer in
  let crash_position runs =
    let rec go i = function
      | [] -> None
      | (r : _ Concolic.Engine.run) :: rest -> (
          match r.Concolic.Engine.run_outcome with
          | Concolic.Engine.Raised (Bgp.Router.Crash _) -> Some (i + 1)
          | _ -> go (i + 1) rest)
    in
    go 0 runs
  in
  (* concolic (with benign seeds only) *)
  let concolic_result =
    Concolic.Engine.explore
      ~limits:{ Concolic.Engine.default_limits with Concolic.Engine.max_inputs = 400 }
      ~seeds:[ [ ("origin_as", view.Dice.Sym_handler.sh_peer.Bgp.Config.remote_as) ] ]
      (Dice.Sym_handler.run view)
  in
  let concolic_pos = crash_position concolic_result.Concolic.Engine.runs in
  (* fuzz-only: same mirror, random grammar inputs *)
  let rng = Netsim.Rng.create 77 in
  let fuzz_pos =
    let rec go i =
      if i > 400 then None
      else
        let input = List.hd (Dice.Sym_handler.fuzz_inputs view rng 1) in
        match Dice.Sym_handler.run view (Concolic.Ctx.create input) with
        | exception Bgp.Router.Crash _ -> Some i
        | _ -> go (i + 1)
    in
    go 1
  in
  let show = function Some n -> string_of_int n | None -> ">400" in
  (* Path coverage at equal input budgets. *)
  let budget = 48 in
  let concolic_paths =
    let r =
      Concolic.Engine.explore
        ~limits:{ Concolic.Engine.default_limits with Concolic.Engine.max_inputs = budget }
        ~seeds:(Dice.Sym_handler.seeds view)
        (Dice.Sym_handler.run view)
    in
    r.Concolic.Engine.distinct_paths
  in
  let fuzz_paths =
    let rng = Netsim.Rng.create 78 in
    let seen = Hashtbl.create 32 in
    List.iter
      (fun input ->
        let ctx = Concolic.Ctx.create input in
        (match Dice.Sym_handler.run view ctx with
        | _ -> ()
        | exception Bgp.Router.Crash _ -> ());
        Hashtbl.replace seen (Concolic.Engine.path_signature (Concolic.Ctx.path ctx)) ())
      (Dice.Sym_handler.fuzz_inputs view rng budget);
    Hashtbl.length seen
  in
  Tables.print
    ~title:"a. input derivation ablation (same handler, same input budget)"
    ~header:[ "strategy"; "inputs to crash"; "distinct paths @48 inputs" ]
    [ [ "concolic (branch negation)"; show concolic_pos; string_of_int concolic_paths ];
      [ "grammar fuzz only"; show fuzz_pos; string_of_int fuzz_paths ] ];
  (* b. consistent cut: does capturing in-flight messages matter? *)
  let trial deliver_in_flight seed =
    let _, build = deploy_generated ~seed ~t1:1 ~transit:3 ~stub:4 in
    let cut =
      Snapshot.Cut.create
        ~speakers:(fun id -> Topology.Build.speaker build id)
        build.Topology.Build.net
    in
    (* Trigger churn, snapshot mid-flight. *)
    let victim = Topology.Build.speaker build 7 in
    let cfg = victim.Bgp.Speaker.sp_config () in
    victim.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
    let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()) in
    let shadow = Snapshot.Store.spawn ~deliver_in_flight snap in
    ignore (Snapshot.Store.run_to_quiescence shadow.Snapshot.Store.sh_clone);
    assert (Topology.Build.converge build);
    (* Count node/prefix disagreements between the quiesced clone and
       the eventual live state. *)
    let diffs = ref 0 in
    List.iter
      (fun (id, clone_sp) ->
        let live_sp = Topology.Build.speaker build id in
        let keys m = List.map fst (Bgp.Prefix_trie.bindings (Bgp.Speaker.loc_rib m)) in
        if keys clone_sp <> keys live_sp then incr diffs)
      shadow.Snapshot.Store.sh_speakers;
    (Snapshot.Cut.in_flight_total snap, !diffs)
  in
  let rows =
    List.concat_map
      (fun seed ->
        let fl, with_d = trial true seed in
        let _, without_d = trial false seed in
        [ [ string_of_int seed; string_of_int fl; string_of_int with_d;
            string_of_int without_d ] ])
      [ 41; 42; 43; 44 ]
  in
  Tables.print
    ~title:"b. clone-vs-eventual-live disagreements with and without in-flight capture"
    ~header:[ "seed"; "in-flight msgs"; "diffs (captured)"; "diffs (dropped)" ]
    rows

let all () =
  let t0 = Unix.gettimeofday () in
  f1 ();
  f2 ();
  t1 ();
  t2 ();
  t3 ();
  t4 ();
  t5 ();
  t6 ();
  Tables.note "\nexperiment harness total: %.1fs\n" (Unix.gettimeofday () -. t0)
