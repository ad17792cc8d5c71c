(* The cascade analyzer: flap spectrum, state-graph cycles, the three
   classifiers on hand-built timelines, the live oscillation gadget
   (detects under a dispute, stays silent without one), the online
   monitor's once-per-root dedupe, report validation, and the pin that
   a pooled and a sequential run serialize byte-identical reports. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Hand-built timelines                                                *)
(* ------------------------------------------------------------------ *)

let ev l = List.mapi (fun i e -> (i, e)) l

let flip ~t ~node ~prefix ~state =
  Telemetry.Sink.Trace
    { t_us = t; node; kind = "loc-rib"; detail = prefix ^ " " ^ state }

let sys ~t ~kind ~node =
  Telemetry.Sink.Sys { t_us = t; kind; nodes = [ node ]; detail = "test" }

(* A regular A -> B -> A -> B ... flip train for one (node, prefix). *)
let train ?(t0 = 0) ?(period = 1000) ~node ~prefix n =
  List.init n (fun i ->
      flip ~t:(t0 + (i * period)) ~node ~prefix
        ~state:(if i land 1 = 0 then "via 2" else "unreachable"))

(* ------------------------------------------------------------------ *)
(* Spectrum                                                            *)
(* ------------------------------------------------------------------ *)

let spectrum_regular_beat () =
  let s = Cascade.Spectrum.of_times [ 0; 1000; 2000; 3000; 4000 ] in
  check Alcotest.int "n" 5 s.Cascade.Spectrum.n;
  check Alcotest.(option int) "steady beat has a period" (Some 1000)
    s.Cascade.Spectrum.period_us;
  (* A burst followed by silence is not a beat: the max gap blows the
     4x-median regularity bound. *)
  let burst = Cascade.Spectrum.of_times [ 0; 10; 20; 30; 1_000_000 ] in
  check Alcotest.(option int) "burst has no period" None
    burst.Cascade.Spectrum.period_us;
  (* Too short to call. *)
  check Alcotest.(option int) "two points have no period" None
    (Cascade.Spectrum.of_times [ 0; 5 ]).Cascade.Spectrum.period_us;
  check Alcotest.int "empty" 0 Cascade.Spectrum.empty.Cascade.Spectrum.n

(* ------------------------------------------------------------------ *)
(* Graph: cycles vs one-way convergence                                *)
(* ------------------------------------------------------------------ *)

let graph_cycle_requires_revisit () =
  (* Revisiting a state closes a cycle... *)
  let tl = Cascade.Timeline.of_events (ev (train ~node:1 ~prefix:"10.0.0.0/24" 4)) in
  let g = Cascade.Graph.build tl in
  check Alcotest.int "two rib states" 2 (Cascade.Graph.vertex_count g);
  check Alcotest.bool "flip train closes a cycle" true (Cascade.Graph.sccs g <> []);
  (* ...while one-way convergence, however long, stays acyclic. *)
  let oneway =
    List.mapi
      (fun i via ->
        flip ~t:(i * 1000) ~node:1 ~prefix:"10.0.0.0/24" ~state:("via " ^ via))
      [ "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]
  in
  let g1 = Cascade.Graph.build (Cascade.Timeline.of_events (ev oneway)) in
  check Alcotest.int "eight rib states" 8 (Cascade.Graph.vertex_count g1);
  check Alcotest.bool "no cycle" true (Cascade.Graph.sccs g1 = [])

(* ------------------------------------------------------------------ *)
(* Classifiers on synthetic timelines                                  *)
(* ------------------------------------------------------------------ *)

let detect_route_oscillation () =
  let tl = Cascade.Timeline.of_events (ev (train ~node:3 ~prefix:"10.0.0.0/24" 9)) in
  let _g, cascades = Cascade.Detect.run tl in
  match cascades with
  | [ c ] ->
      check Alcotest.bool "kind" true
        (c.Cascade.Detect.c_kind = Cascade.Detect.Route_oscillation);
      check Alcotest.(list int) "node" [ 3 ] c.Cascade.Detect.c_nodes;
      check Alcotest.(list string) "prefix" [ "10.0.0.0/24" ]
        c.Cascade.Detect.c_prefixes;
      check Alcotest.int "flip count" 9 c.Cascade.Detect.c_count;
      check Alcotest.(option int) "steady period" (Some 1000)
        c.Cascade.Detect.c_period_us
  | l -> Alcotest.failf "expected one cascade, got %d" (List.length l)

let short_train_is_clean () =
  (* Below min_flips: a convergence transient, not an oscillation. *)
  let tl = Cascade.Timeline.of_events (ev (train ~node:3 ~prefix:"10.0.0.0/24" 5)) in
  check Alcotest.int "no cascade below min_flips" 0
    (List.length (Cascade.Detect.detect tl));
  (* Same length qualifies once min_flips is lowered. *)
  let params = { Cascade.Detect.default_params with Cascade.Detect.min_flips = 4 } in
  check Alcotest.int "tunable floor" 1
    (List.length (Cascade.Detect.detect ~params tl))

(* auto_params scales min_flips to the observed round cadence, with the
   fixed floor pinned as the lower bound: short timelines must keep the
   exact default classification, long ones must demand more evidence. *)
let auto_params_floor_and_scaling () =
  let rounds n =
    List.concat
      (List.init n (fun i ->
           [ Telemetry.Sink.Span_start
               { id = i + 1; parent = None; name = "round";
                 t_us = i * 1000; attrs = [ ("index", Telemetry.Json.Int i) ] };
             Telemetry.Sink.Span_end
               { id = i + 1; t_us = (i * 1000) + 500; attrs = [] } ]))
  in
  let base = Cascade.Detect.default_params in
  let short = Cascade.Timeline.of_events (ev (rounds 4)) in
  check Alcotest.int "short timeline pins the fixed floor"
    base.Cascade.Detect.min_flips
    (Cascade.Detect.auto_params short).Cascade.Detect.min_flips;
  let long = Cascade.Timeline.of_events (ev (rounds 40)) in
  check Alcotest.int "40 rounds demand rounds/2 flips" 20
    (Cascade.Detect.auto_params long).Cascade.Detect.min_flips;
  (* A raised floor stays the lower bound even on long timelines. *)
  let strict = { base with Cascade.Detect.min_flips = 25 } in
  check Alcotest.int "explicit floor survives auto-tuning" 25
    (Cascade.Detect.auto_params ~base:strict long).Cascade.Detect.min_flips;
  (* Monotone: more rounds never lower the bar. *)
  let f n =
    (Cascade.Detect.auto_params (Cascade.Timeline.of_events (ev (rounds n))))
      .Cascade.Detect.min_flips
  in
  List.iter
    (fun (a, b) ->
      check Alcotest.bool
        (Printf.sprintf "min_flips(%d) <= min_flips(%d)" a b)
        true
        (f a <= f b))
    [ (1, 8); (8, 16); (16, 64) ]

let detect_flap_storm () =
  let trains =
    List.concat
      (List.init 9 (fun p ->
           train ~t0:(p * 17) ~node:p ~prefix:(Printf.sprintf "10.%d.0.0/24" p) 8))
  in
  let _g, cascades = Cascade.Detect.run (Cascade.Timeline.of_events (ev trains)) in
  match cascades with
  | [ c ] ->
      check Alcotest.bool "storm, not nine reports" true
        (c.Cascade.Detect.c_kind = Cascade.Detect.Flap_storm);
      check Alcotest.int "all prefixes aggregated" 9
        (List.length c.Cascade.Detect.c_prefixes)
  | l -> Alcotest.failf "expected one storm, got %d cascade(s)" (List.length l)

let detect_quarantine_pingpong () =
  let pingpong =
    [ sys ~t:0 ~kind:"quarantine" ~node:4;
      sys ~t:1_000_000 ~kind:"unquarantine" ~node:4;
      sys ~t:2_000_000 ~kind:"quarantine" ~node:4 ]
  in
  let _g, cascades =
    Cascade.Detect.run (Cascade.Timeline.of_events (ev pingpong))
  in
  (match cascades with
  | [ c ] ->
      check Alcotest.bool "kind" true
        (c.Cascade.Detect.c_kind = Cascade.Detect.Quarantine_pingpong);
      check Alcotest.(list int) "node" [ 4 ] c.Cascade.Detect.c_nodes;
      check Alcotest.int "two quarantines" 2 c.Cascade.Detect.c_count
  | l -> Alcotest.failf "expected ping-pong, got %d cascade(s)" (List.length l));
  (* One quarantine that sticks is the supervisor working as designed. *)
  let once =
    [ sys ~t:0 ~kind:"quarantine" ~node:4;
      sys ~t:1_000_000 ~kind:"unquarantine" ~node:4 ]
  in
  check Alcotest.int "single quarantine is clean" 0
    (List.length (Cascade.Detect.detect (Cascade.Timeline.of_events (ev once))))

let cascade_fault_signature_is_stable () =
  let tl = Cascade.Timeline.of_events (ev (train ~node:3 ~prefix:"10.0.0.0/24" 9)) in
  let tl' =
    Cascade.Timeline.of_events
      (ev (train ~t0:500 ~period:2000 ~node:3 ~prefix:"10.0.0.0/24" 11))
  in
  let sig_of tl =
    match Cascade.Detect.detect tl with
    | [ c ] -> Dice.Signature.to_string (Dice.Signature.of_fault (Cascade.Detect.to_fault c))
    | l -> Alcotest.failf "expected one cascade, got %d" (List.length l)
  in
  (* Counts and timing differ between the two runs; the normalized
     signature must not. *)
  check Alcotest.string "identical signature across timings"
    "cascade|route-oscillation|-|3|prefix # flip-flopped # times across # \
     node(s) (period ~#s)"
    (sig_of tl);
  check Alcotest.string "byte-identical" (sig_of tl) (sig_of tl')

(* ------------------------------------------------------------------ *)
(* Streaming reader + sys records                                      *)
(* ------------------------------------------------------------------ *)

let reader_reports_line_numbers () =
  let path = Filename.temp_file "cascade-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"type\":\"run\",\"seq\":0,\"schema\":\"dice-telemetry/1\",\"attrs\":{}}\n\
         this is not json\n\
         {\"seq\":1,\"type\":\"trace\",\"t_us\":5,\"node\":1,\"kind\":\"loc-rib\",\
         \"detail\":\"10.0.0.0/24 unreachable\"}\n\
         {\"seq\":2,\"type\":\"nonsense\"}\n";
      close_out oc;
      match Cascade.Timeline.of_file path with
      | Ok _ -> Alcotest.fail "malformed artifact accepted"
      | Error msgs ->
          check Alcotest.int "both bad lines reported" 2 (List.length msgs);
          List.iter2
            (fun want got ->
              check Alcotest.bool
                (Printf.sprintf "%S names its line" got)
                true
                (String.length got >= String.length want
                && String.equal (String.sub got 0 (String.length want)) want))
            [ "line 2:"; "line 4:" ]
            msgs)

let sys_records_roundtrip_and_validate () =
  let event =
    Telemetry.Sink.Sys
      { t_us = 42; kind = "churn.node-down"; nodes = [ 3; 5 ]; detail = "d" }
  in
  (match Telemetry.Sink.(of_json (to_json ~seq:7 event)) with
  | Ok (seq, ev) ->
      check Alcotest.int "seq" 7 seq;
      check Alcotest.bool "event" true (ev = event)
  | Error e -> Alcotest.failf "sys event did not round-trip: %s" e);
  (* A JSONL artifact carrying sys records passes schema validation
     and the stats count them. *)
  let path = Filename.temp_file "cascade-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.with_jsonl path (fun () ->
          Telemetry.sys_event ~kind:"quarantine" ~nodes:[ 1 ] ~detail:"t" ();
          Telemetry.sys_event ~kind:"unquarantine" ~nodes:[ 1 ] ~detail:"t" ());
      match Telemetry.Schema.validate_file path with
      | Ok stats -> check Alcotest.int "sys counted" 2 stats.Telemetry.Schema.v_sys
      | Error msgs -> Alcotest.failf "invalid: %s" (String.concat "; " msgs))

(* ------------------------------------------------------------------ *)
(* Online monitor                                                      *)
(* ------------------------------------------------------------------ *)

let online_monitor_reports_once () =
  Cascade.Online.with_monitor @@ fun mon ->
  check Alcotest.(list string) "clean window probes empty" []
    (List.map Dice.Fault.root (Cascade.Online.probe mon));
  List.iter (Telemetry.Sink.emit (Telemetry.sink ()))
    (train ~node:2 ~prefix:"10.0.0.0/24" 10);
  (match Cascade.Online.probe mon with
  | [ f ] ->
      check Alcotest.bool "cascade class" true
        (f.Dice.Fault.f_class = Dice.Fault.Cascade)
  | l -> Alcotest.failf "expected one fault, got %d" (List.length l));
  (* The window still holds the same evidence: the root was already
     reported, so the next probe must swallow it. *)
  check Alcotest.int "same root reported once" 0
    (List.length (Cascade.Online.probe mon));
  (* An artifact opened inside the monitor tees onto it: the monitor
     keeps seeing what the artifact records. *)
  let path = Filename.temp_file "online-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.with_jsonl path (fun () ->
          List.iter (Telemetry.Sink.emit (Telemetry.sink ()))
            (train ~t0:100_000 ~node:5 ~prefix:"10.5.0.0/24" 10)));
  check Alcotest.bool "sees events under an artifact" true
    (Cascade.Online.probe mon <> [])

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let report_roundtrip_and_validation () =
  let tl = Cascade.Timeline.of_events (ev (train ~node:3 ~prefix:"10.0.0.0/24" 9)) in
  let propagation, cascades = Cascade.Detect.run tl in
  let doc = Cascade.Report.to_json ~timeline:tl ~propagation cascades in
  (match Cascade.Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh report invalid: %s" e);
  let path = Filename.temp_file "cascade-test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Artifact.write_json ~path doc;
      match Result.bind (Telemetry.Artifact.read_json path) Cascade.Report.validate with
      | Ok () -> ()
      | Error e -> Alcotest.failf "written report invalid: %s" e);
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Cascade.Report.validate (Telemetry.Json.String "nope")));
  check Alcotest.bool "wrong schema rejected" true
    (Result.is_error
       (Cascade.Report.validate
          (Telemetry.Json.Obj [ ("schema", Telemetry.Json.String "dice-telemetry/1") ])))

(* ------------------------------------------------------------------ *)
(* Scenario field                                                      *)
(* ------------------------------------------------------------------ *)

let legacy_scenario_decodes_without_cascade () =
  (* A pre-cascade corpus entry has no "cascade" field: it must decode
     (as false) so old corpora keep replaying. *)
  let legacy =
    {|{"scenario":"deploy","topo":{"name":"bad-gadget"},"keep":null,"seed":7,"inject":{"kind":"policy-dispute","cycle":[1,2,3],"victim":0},"settle_sec":0.0,"churn":[],"mangle":null,"run":{"mode":"direct","node":0,"peer":0,"input":null}}|}
  in
  match Triage.Scenario.of_string legacy with
  | Error e -> Alcotest.failf "legacy scenario rejected: %s" e
  | Ok (Triage.Scenario.Deploy d) ->
      check Alcotest.bool "defaults to false" false d.Triage.Scenario.dp_cascade
  | Ok (Triage.Scenario.Wire _) -> Alcotest.fail "decoded as wire"

(* A live cascade scenario and its headless replay run the same
   monitor: every cascade [on_fault] sees while the rounds run is in
   the outcome, and the replay reports the same signatures. *)
let live_cascades_are_the_replays () =
  let scenario =
    Triage.Scenario.Deploy
      { Triage.Scenario.dp_topo = Triage.Scenario.Bad_gadget;
        dp_keep = None;
        dp_seed = 42;
        dp_inject =
          Some
            (Dice.Inject.Policy_dispute
               { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
        dp_settle_sec = 10.;
        dp_churn = [];
        dp_mangle = None;
        dp_confuzz = [];
        dp_cascade = true;
        dp_mode =
          Triage.Scenario.Explore
            { Triage.Scenario.default_exploration with Triage.Scenario.ex_rounds = 3 } }
  in
  let seen = ref [] in
  let on_fault (f : Dice.Fault.t) =
    if f.Dice.Fault.f_class = Dice.Fault.Cascade then seen := f :: !seen
  in
  let live = Triage.Scenario.run_observed ~on_fault scenario in
  let replay = Triage.Scenario.run scenario in
  let sigs (o : Triage.Scenario.outcome) =
    check Alcotest.(option string) "no setup error" None o.Triage.Scenario.o_error;
    List.sort String.compare
      (List.map Dice.Signature.to_string o.Triage.Scenario.o_signatures)
  in
  check Alcotest.bool "on_fault saw a cascade during the rounds" true (!seen <> []);
  List.iter
    (fun f ->
      check Alcotest.bool
        ("in the outcome: " ^ Dice.Fault.root f)
        true
        (List.exists
           (fun g -> Dice.Fault.root g = Dice.Fault.root f)
           live.Triage.Scenario.o_faults))
    !seen;
  check Alcotest.(list string) "live and replay signatures" (sigs replay) (sigs live)

(* ------------------------------------------------------------------ *)
(* The live gadget                                                     *)
(* ------------------------------------------------------------------ *)

(* Deploy Griffin's bare BAD GADGET, optionally inject the dispute
   wheel, record telemetry into a ring, and analyze it. *)
let run_gadget ~dispute () =
  let graph = Topology.Gadget.bad_gadget () in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  if dispute then
    Dice.Inject.apply build
      (Dice.Inject.Policy_dispute
         { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let ring = Telemetry.Sink.ring ~capacity:65536 in
  let saved_sink = Telemetry.sink () in
  let saved_clock = Telemetry.current_clock () in
  Telemetry.set_sink ring;
  Telemetry.set_clock (fun () ->
      Netsim.Time.to_us (Netsim.Engine.now build.Topology.Build.engine));
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_sink saved_sink;
      Telemetry.set_clock saved_clock)
    (fun () ->
      Topology.Build.run_for build (Netsim.Time.span_sec 5.);
      let _summary =
        Dice.Orchestrator.run ~nodes:Topology.Gadget.wheel ~build ~gt
          ~rounds:3 ()
      in
      Cascade.Timeline.of_events (Telemetry.Sink.events ring))

let oscillation_gadget_detects () =
  let tl = run_gadget ~dispute:true () in
  let propagation, cascades = Cascade.Detect.run tl in
  let oscillations =
    List.filter
      (fun c -> c.Cascade.Detect.c_kind = Cascade.Detect.Route_oscillation)
      cascades
  in
  check Alcotest.bool "dispute wheel oscillates" true (oscillations <> []);
  check Alcotest.bool "cycle evidence in the graph" true
    (Cascade.Graph.sccs propagation <> []);
  let c = List.hd oscillations in
  check Alcotest.string "victim prefix" "192.0.0.0/24"
    (List.hd c.Cascade.Detect.c_prefixes);
  check Alcotest.string "pinned signature"
    "cascade|route-oscillation|-|1|prefix # flip-flopped # times across # node(s)"
    (Dice.Signature.to_string (Dice.Signature.of_fault (Cascade.Detect.to_fault c)))

let dispute_free_gadget_is_clean () =
  let tl = run_gadget ~dispute:false () in
  let _propagation, cascades = Cascade.Detect.run tl in
  check Alcotest.int "no cascades without a dispute" 0 (List.length cascades)

let run_twice_reports_identical () =
  let report () =
    let tl = run_gadget ~dispute:true () in
    let propagation, cascades = Cascade.Detect.run tl in
    Telemetry.Json.to_string
      (Cascade.Report.to_json ~timeline:tl ~propagation cascades)
  in
  let first = report () in
  check Alcotest.string "byte-identical reports" first (report ())

(* ------------------------------------------------------------------ *)
(* Heterogeneous deployments                                           *)
(* ------------------------------------------------------------------ *)

(* Final loc-rib state per prefix at [node], read from the flip stream
   of a converged 0 - 1 - 2 line (node 1 a customer of 0, 2 of 1). *)
let line_final_states ~sparrow_nodes ~node =
  let graph =
    Topology.Graph.make
      ~nodes:
        [ (0, Topology.Graph.Tier1); (1, Topology.Graph.Transit);
          (2, Topology.Graph.Transit) ]
      ~edges:
        [ { Topology.Graph.a = 1; b = 0; rel = Topology.Graph.Customer_provider };
          { Topology.Graph.a = 2; b = 1; rel = Topology.Graph.Customer_provider } ]
  in
  let sink = Telemetry.Sink.memory () in
  Telemetry.set_sink sink;
  let tl =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_sink Telemetry.Sink.noop)
      (fun () ->
        let build = Topology.Build.deploy ~sparrow_nodes graph in
        Topology.Build.start_all build;
        assert (Topology.Build.converge build);
        Cascade.Timeline.of_events (Telemetry.Sink.events sink))
  in
  List.fold_left
    (fun acc (f : Cascade.Timeline.flip) ->
      if f.fp_node <> node then acc
      else (f.fp_prefix, f.fp_state) :: List.remove_assoc f.fp_prefix acc)
    [] tl.Cascade.Timeline.tl_flips
  |> List.sort compare

(* A Sparrow node between two Routers reports its loc-rib changes in
   the same format a Router in its place does, so the stitcher sees
   it. *)
let sparrow_flips_match_router () =
  let sparrow = line_final_states ~sparrow_nodes:[ 1 ] ~node:1 in
  check Alcotest.int "three prefixes at the Sparrow node" 3 (List.length sparrow);
  check
    Alcotest.(list (pair string string))
    "same final states as a Router"
    (line_final_states ~sparrow_nodes:[] ~node:1)
    sparrow

let suite =
  [ ("spectrum: regular beat vs burst", `Quick, spectrum_regular_beat);
    ("graph: cycle requires a revisit", `Quick, graph_cycle_requires_revisit);
    ("detect: route oscillation", `Quick, detect_route_oscillation);
    ("detect: short train is clean", `Quick, short_train_is_clean);
    ("detect: auto_params floor + scaling", `Quick, auto_params_floor_and_scaling);
    ("detect: flap storm aggregates", `Quick, detect_flap_storm);
    ("detect: quarantine ping-pong", `Quick, detect_quarantine_pingpong);
    ("detect: stable cascade signature", `Quick, cascade_fault_signature_is_stable);
    ("reader: malformed lines are numbered", `Quick, reader_reports_line_numbers);
    ("sys: codec round-trip + validation", `Quick, sys_records_roundtrip_and_validate);
    ("online: one report per root", `Quick, online_monitor_reports_once);
    ("report: round-trip + validation", `Quick, report_roundtrip_and_validation);
    ("scenario: legacy entries decode", `Quick, legacy_scenario_decodes_without_cascade);
    ("scenario: live cascades are the replay's", `Quick, live_cascades_are_the_replays);
    ("sparrow: loc-rib flips like a Router", `Quick, sparrow_flips_match_router);
    ("gadget: dispute oscillates", `Slow, oscillation_gadget_detects);
    ("gadget: dispute-free is clean", `Slow, dispute_free_gadget_is_clean);
    ("gadget: run-twice reports identical", `Slow, run_twice_reports_identical) ]
