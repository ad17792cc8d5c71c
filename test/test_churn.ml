(* Churn resilience end-to-end: the supervised orchestrator keeps
   detecting all three fault classes on Demo27 while routers crash and
   links flap; quarantine kicks in after repeated failures; and the
   default (churn-free) path is pinned to the unsupervised behavior. *)

let check = Alcotest.check

let fast_params =
  { Dice.Explorer.default_params with
    Dice.Explorer.limits =
      { Concolic.Engine.max_inputs = 24; max_branches = 32; solver_nodes = 10_000 };
    fuzz_extra = 6;
    shadow_budget = 15_000 }

let churn_params =
  { fast_params with
    Dice.Explorer.snapshot_deadline = Some (Netsim.Time.span_sec 30.) }

let class_names faults =
  List.sort_uniq String.compare
    (List.map
       (fun (f : Dice.Fault.t) -> Dice.Fault.class_to_string f.Dice.Fault.f_class)
       faults)

(* ------------------------------------------------------------------ *)
(* The headline: Demo27 under churn                                    *)
(* ------------------------------------------------------------------ *)

let demo27_detects_under_churn () =
  let graph = Topology.Demo27.graph in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  ignore (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  (* One fault of each class.  Victim 13 homes to tier-1s 0 (via 4) and
     1 (via 5); hijacking its prefix at stub 20 (under tier-1 2) gives
     every member of the tier-1 clique a customer route to it, so the
     dispute wheel over [0;1;2] is a true BAD GADGET — and the hijack
     itself is the operator mistake. *)
  Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = 20; victim = 13 });
  Dice.Inject.apply build
    (Dice.Inject.Policy_dispute { cycle = [ 0; 1; 2 ]; victim = 13 });
  Dice.Inject.apply build
    (Dice.Inject.Crash_bug { at = 3; community = Bgp.Community.make 64111 1 });
  Topology.Build.run_for build (Netsim.Time.span_sec 30.);
  (* Churn away from the faults under test: three stub/transit-edge
     crashes (restored before hold expiry) and five link flaps. *)
  let s = Netsim.Time.span_sec in
  let schedule =
    Netsim.Churn.crash ~node:22 ~at:(s 5.) ~restore_after:(s 40.) ()
    @ Netsim.Churn.crash ~node:24 ~at:(s 20.) ~restore_after:(s 40.) ()
    @ Netsim.Churn.crash ~node:17 ~at:(s 45.) ~restore_after:(s 40.) ()
    @ Netsim.Churn.flap ~a:9 ~b:23 ~from_:(s 10.) ~every:(s 30.) ~down_for:(s 10.)
        ~times:2
    @ Netsim.Churn.flap ~a:6 ~b:18 ~from_:(s 25.) ~every:(s 30.) ~down_for:(s 10.)
        ~times:2
    @ Netsim.Churn.flap ~a:10 ~b:25 ~from_:(s 55.) ~every:(s 20.) ~down_for:(s 5.)
        ~times:1
  in
  Alcotest.(check bool) "schedule has >= 3 node crashes" true
    (Netsim.Churn.node_crashes schedule >= 3);
  Alcotest.(check bool) "schedule has >= 3 link flaps" true
    (Netsim.Churn.link_downs schedule >= 3);
  ignore (Netsim.Churn.apply build.Topology.Build.net schedule);
  (* One pass over the fault sites plus the dispute wheel. *)
  let rounds = 6 in
  let summary =
    Dice.Orchestrator.run ~params:churn_params ~build ~gt
      ~nodes:[ 3; 0; 20; 1; 13; 2 ] ~rounds ()
  in
  check Alcotest.int "every requested round accounted for" rounds
    (List.length summary.Dice.Orchestrator.rounds);
  check Alcotest.int "outcome counts partition the rounds" rounds
    (summary.Dice.Orchestrator.ok_rounds
    + summary.Dice.Orchestrator.degraded_rounds
    + summary.Dice.Orchestrator.failed_rounds);
  check Alcotest.int "no round raised" 0 summary.Dice.Orchestrator.failed_rounds;
  check Alcotest.int "no snapshot leaked" 0
    summary.Dice.Orchestrator.leaked_snapshots;
  check
    (Alcotest.list Alcotest.string)
    "all three fault classes detected under churn"
    [ "operator-mistake"; "policy-conflict"; "programming-error" ]
    (class_names summary.Dice.Orchestrator.faults);
  (* first_detection mirrors the detected classes. *)
  check Alcotest.int "first_detection covers each class" 3
    (List.length summary.Dice.Orchestrator.first_detection)

(* ------------------------------------------------------------------ *)
(* Quarantine policy                                                   *)
(* ------------------------------------------------------------------ *)

let quarantine_after_strikes () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 5) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  (* Node 999 does not exist: every round on it fails, so the
     orchestrator's constant three strikes quarantine it and the
     scheduler falls back to node 0. *)
  let summary =
    Dice.Orchestrator.run ~params:fast_params ~build ~gt ~nodes:[ 0; 999 ]
      ~rounds:8 ()
  in
  check Alcotest.int "all rounds ran" 8 (List.length summary.Dice.Orchestrator.rounds);
  Alcotest.(check bool) "failures recorded, not raised" true
    (summary.Dice.Orchestrator.failed_rounds >= 2);
  Alcotest.(check bool) "healthy node kept exploring" true
    (summary.Dice.Orchestrator.ok_rounds >= 4);
  (match summary.Dice.Orchestrator.quarantines with
  | [] -> Alcotest.fail "expected a quarantine event"
  | q :: _ ->
      check Alcotest.int "quarantined the failing node" 999
        q.Dice.Orchestrator.q_node;
      check Alcotest.int "after three consecutive failures" 3
        q.Dice.Orchestrator.q_strikes;
      Alcotest.(check bool) "backoff extends past the trigger round" true
        (q.Dice.Orchestrator.q_until_round > q.Dice.Orchestrator.q_round));
  (* Rounds scheduled while quarantined must not run on the bad node. *)
  List.iter
    (fun (q : Dice.Orchestrator.quarantine_event) ->
      List.iter
        (fun (r : Dice.Orchestrator.round) ->
          if
            r.Dice.Orchestrator.rd_index > q.Dice.Orchestrator.q_round
            && r.Dice.Orchestrator.rd_index < q.Dice.Orchestrator.q_until_round
          then
            Alcotest.(check bool) "quarantined node skipped" false
              (r.Dice.Orchestrator.rd_node = q.Dice.Orchestrator.q_node))
        summary.Dice.Orchestrator.rounds)
    summary.Dice.Orchestrator.quarantines;
  check Alcotest.int "failed initiations do not leak snapshots" 0
    summary.Dice.Orchestrator.leaked_snapshots

(* ------------------------------------------------------------------ *)
(* Default path pinned                                                 *)
(* ------------------------------------------------------------------ *)

let fault_strings x =
  List.sort String.compare
    (List.map
       (fun (f : Dice.Fault.t) -> Format.asprintf "%a" Dice.Fault.pp f)
       x.Dice.Explorer.x_faults)

let pin_deploy () =
  let graph = Topology.Gadget.embedded () in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build
    (Dice.Inject.Crash_bug
       { at = Topology.Gadget.victim; community = Bgp.Community.make 64111 1 });
  (build, gt)

let default_path_pinned () =
  (* With no churn schedule and no deadlines, the supervised run must
     produce exactly what the bare exploration loop produces on an
     identically-seeded deployment: same faults, inputs, paths. *)
  let nodes = [ 0; Topology.Gadget.victim; 2 ] in
  let rounds = 3 in
  let interval = Netsim.Time.span_sec 5. in
  let build_a, gt_a = pin_deploy () in
  let summary =
    Dice.Orchestrator.run ~params:fast_params ~interval ~build:build_a ~gt:gt_a
      ~nodes ~rounds ()
  in
  let build_b, gt_b = pin_deploy () in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build_b id)
      build_b.Topology.Build.net
  in
  let reference =
    List.init rounds (fun i ->
        let node = List.nth nodes (i mod List.length nodes) in
        let x =
          Dice.Explorer.explore_node ~params:fast_params ~build:build_b ~cut
            ~gt:gt_b ~node ()
        in
        Topology.Build.run_for build_b interval;
        x)
  in
  check Alcotest.int "every round Ok" rounds summary.Dice.Orchestrator.ok_rounds;
  List.iteri
    (fun i (r, x_ref) ->
      let x =
        match Dice.Orchestrator.round_exploration r with
        | Some x -> x
        | None -> Alcotest.failf "round %d failed" i
      in
      check Alcotest.int
        (Printf.sprintf "round %d: same node" i)
        x_ref.Dice.Explorer.x_node x.Dice.Explorer.x_node;
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "round %d: identical fault set" i)
        (fault_strings x_ref) (fault_strings x);
      check Alcotest.int
        (Printf.sprintf "round %d: identical input count" i)
        x_ref.Dice.Explorer.x_inputs x.Dice.Explorer.x_inputs;
      check Alcotest.int
        (Printf.sprintf "round %d: identical distinct-path count" i)
        x_ref.Dice.Explorer.x_distinct_paths x.Dice.Explorer.x_distinct_paths;
      Alcotest.(check bool)
        (Printf.sprintf "round %d: complete cut" i)
        false x.Dice.Explorer.x_partial)
    (List.combine summary.Dice.Orchestrator.rounds reference);
  check Alcotest.int "no snapshots left active" 0
    summary.Dice.Orchestrator.leaked_snapshots;
  check Alcotest.int "reference loop left none either" 0
    (Snapshot.Cut.active cut)

let suite =
  [ ("churn: Demo27 detects all classes under churn", `Slow,
     demo27_detects_under_churn);
    ("churn: quarantine after repeated failures", `Slow, quarantine_after_strikes);
    ("churn: default path identical to bare loop", `Slow, default_path_pinned) ]
