(* The flight recorder: histogram semantics, JSONL codec round-trips,
   span causality (sequential and across pool domains), artifact
   validation, and the pin that a disabled sink changes nothing. *)

let check = Alcotest.check

let with_memory_sink f =
  let sink = Telemetry.Sink.memory () in
  Telemetry.set_sink sink;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_sink Telemetry.Sink.noop)
    (fun () -> f sink)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let histogram_bucket_boundaries () =
  let h = Telemetry.Histogram.create ~buckets:[| 1.; 10.; 100. |] "t" in
  List.iter (Telemetry.Histogram.observe h) [ 0.5; 1.0; 1.5; 10.0; 10.1; 1000. ];
  (* Bucket rule is [v <= le]: boundary values land in their bucket,
     not the next one; values above the last edge go to overflow. *)
  (match Telemetry.Histogram.buckets h with
  | [ (le1, n1); (le10, n2); (le100, n3); (inf, n4) ] ->
      check (Alcotest.float 0.) "first edge" 1. le1;
      check Alcotest.int "v <= 1" 2 n1;
      check (Alcotest.float 0.) "second edge" 10. le10;
      check Alcotest.int "1 < v <= 10" 2 n2;
      check (Alcotest.float 0.) "third edge" 100. le100;
      check Alcotest.int "10 < v <= 100" 1 n3;
      check Alcotest.bool "last bucket is +inf" true (inf = infinity);
      check Alcotest.int "overflow" 1 n4
  | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l));
  check Alcotest.int "count" 6 (Telemetry.Histogram.count h)

let percentile_edges () =
  let h = Telemetry.Histogram.create "p" in
  List.iter (Telemetry.Histogram.observe h) [ 3.; 1.; 4.; 2. ];
  let p q = Telemetry.Histogram.percentile h q in
  (* Nearest-rank with the rank clamped into [1, n]: p=0 is exactly the
     minimum and p=1 exactly the maximum (the old ceil-only formula
     indexed rank 0 at p=0). *)
  check (Alcotest.float 0.) "p=0 is the minimum" 1. (p 0.);
  check (Alcotest.float 0.) "p=1 is the maximum" 4. (p 1.);
  check (Alcotest.float 0.) "p50 nearest-rank" 2. (p 0.5);
  check (Alcotest.float 0.) "p99 on 4 samples" 4. (p 0.99);
  (try
     ignore (p 1.5);
     Alcotest.fail "p > 1 must raise"
   with Invalid_argument _ -> ());
  (try
     ignore (p nan);
     Alcotest.fail "NaN p must raise"
   with Invalid_argument _ -> ())

let percentile_empty_is_nan () =
  let h = Telemetry.Histogram.create "e" in
  check Alcotest.bool "empty histogram percentile is NaN" true
    (Float.is_nan (Telemetry.Histogram.percentile h 0.5))

(* ------------------------------------------------------------------ *)
(* Simulator events: free when nobody listens                          *)
(* ------------------------------------------------------------------ *)

let trace_details sink =
  List.filter_map
    (function _, Telemetry.Sink.Trace { detail; _ } -> Some detail | _ -> None)
    (Telemetry.Sink.events sink)

let event_thunks_run_only_when_listened () =
  let eng = Netsim.Engine.create () in
  let topology = Netsim.Network.make_topology ~nodes:[ 0 ] ~channels:[] in
  let live = Netsim.Network.create ~label:"live" eng topology (fun _ ~src:_ _ -> ()) in
  let unlabeled = Netsim.Network.create eng topology (fun _ ~src:_ _ -> ()) in
  let runs = ref 0 in
  let emit net =
    Netsim.Network.emit_lazy net ~node:0 ~kind:"probe" (fun () ->
        incr runs;
        "detail")
  in
  Telemetry.set_sink Telemetry.Sink.noop;
  emit live;
  check Alcotest.int "noop sink: the thunk never runs" 0 !runs;
  with_memory_sink (fun sink ->
      emit live;
      emit live;
      emit unlabeled;
      check Alcotest.int "memory sink: once per labeled event" 2 !runs;
      check
        Alcotest.(list string)
        "only the labeled network's events" [ "detail"; "detail" ]
        (trace_details sink))

(* [heal] walks the channels in number order, so its "link up" events
   come out in ascending (source, destination) order, whatever order
   the links went down in. *)
let heal_emits_in_channel_order () =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create ~label:"live" eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1; 2; 3 ]
         ~channels:[ (0, 1); (1, 0); (1, 2); (2, 1); (2, 3); (3, 2) ])
      (fun _ ~src:_ (_ : string) -> ())
  in
  List.iter (fun (a, b) -> Netsim.Network.set_link_down net a b) [ (3, 2); (2, 1); (0, 1) ];
  Netsim.Network.partition net [ 0; 1 ] [ 2; 3 ];
  with_memory_sink (fun sink ->
      Netsim.Network.heal net;
      check
        Alcotest.(list string)
        "link up events"
        [ "link 0->1 up"; "link 1->2 up"; "link 2->1 up"; "link 3->2 up" ]
        (trace_details sink))

(* Shadows run on unlabeled networks, so a replay adds nothing to the
   live timeline even while a sink listens. *)
let shadow_replay_adds_no_events () =
  let build = Test_snapshot.deploy_line 3 in
  let snap = Test_snapshot.take build (Test_snapshot.make_cut build) 0 in
  with_memory_sink (fun sink ->
      let shadow = Snapshot.Store.clone snap in
      let sp = Snapshot.Store.touch shadow 2 in
      let cfg = sp.Bgp.Speaker.sp_config () in
      sp.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
      check Alcotest.bool "shadow quiesces" true (Snapshot.Store.run_to_quiescence shadow);
      check Alcotest.bool "the withdrawal travelled" true
        (Netsim.Network.messages_delivered shadow.Snapshot.Store.cl_net > 0);
      check Alcotest.(list string) "no trace events" [] (trace_details sink))

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let sample_events =
  let open Telemetry.Sink in
  let open Telemetry.Json in
  [ Run { schema = Telemetry.Schema.version; attrs = [ ("seed", Int 42) ] };
    Span_start
      { id = 1; parent = None; name = "round";
        t_us = 70_000_000;
        attrs = [ ("index", Int 0); ("label", String "a \"quoted\" one") ] };
    Span_start
      { id = 2; parent = Some 1; name = "cut"; t_us = 70_000_001; attrs = [] };
    Fault
      { t_us = 70_000_002; fault_class = "operator-mistake";
        property = "origin-authenticity"; node = 11;
        detail = "hijacked\nprefix"; input = Some "nlri_a=10";
        span_path = [ 1; 2 ] };
    Fault
      { t_us = 70_000_003; fault_class = "programming-error";
        property = "handler-crash"; node = -1; detail = "boom"; input = None;
        span_path = [] };
    Metric { t_us = 70_000_004; name = "solver.sat"; value = Int 21 };
    Metric
      { t_us = 70_000_005; name = "net.live.node_downtime_us";
        value = Obj [ ("count", Int 0); ("p50", Null); ("frac", Float 0.25) ] };
    Trace { t_us = 70_000_006; node = 3; kind = "churn"; detail = "node down" };
    Span_end { id = 2; t_us = 70_000_007; attrs = [ ("ok", Bool true) ] };
    Span_end { id = 1; t_us = 70_000_008; attrs = [] } ]

let jsonl_roundtrip () =
  List.iteri
    (fun seq ev ->
      let line = Telemetry.Json.to_string (Telemetry.Sink.to_json ~seq ev) in
      match Telemetry.Json.of_string line with
      | Error e -> Alcotest.failf "line %d failed to parse: %s (%s)" seq e line
      | Ok j -> (
          match Telemetry.Sink.of_json j with
          | Error e -> Alcotest.failf "line %d failed to decode: %s (%s)" seq e line
          | Ok (seq', ev') ->
              check Alcotest.int "seq survives" seq seq';
              (* Compare via re-encoding: event has functional values
                 nowhere, but Json.equal gives order-insensitive
                 object comparison for free. *)
              check Alcotest.bool
                (Printf.sprintf "event %d round-trips" seq)
                true
                (Telemetry.Json.equal
                   (Telemetry.Sink.to_json ~seq ev)
                   (Telemetry.Sink.to_json ~seq:seq' ev'))))
    sample_events

let json_parser_rejects_garbage () =
  List.iter
    (fun s ->
      match Telemetry.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span_names_and_parents sink =
  let spans =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Telemetry.Sink.Span_start { id; parent; name; _ } ->
            Some (id, parent, name)
        | _ -> None)
      (Telemetry.Sink.events sink)
  in
  (* (name, parent-name) pairs: stable across interleavings and id
     assignment order. *)
  List.map
    (fun (_, parent, name) ->
      let pname =
        match parent with
        | None -> "<root>"
        | Some pid -> (
            match List.find_opt (fun (id, _, _) -> id = pid) spans with
            | Some (_, _, n) -> n
            | None -> "<missing>")
      in
      (name, pname))
    spans

let span_nesting () =
  let pairs =
    with_memory_sink (fun sink ->
        Telemetry.with_span "outer" (fun _ ->
            Telemetry.with_span "inner" (fun _ -> ());
            Telemetry.with_span "inner" (fun _ -> ()));
        span_names_and_parents sink)
  in
  check
    Alcotest.(list (pair string string))
    "nesting recorded"
    [ ("outer", "<root>"); ("inner", "outer"); ("inner", "outer") ]
    pairs

let span_closes_on_exception () =
  with_memory_sink (fun sink ->
      (try Telemetry.with_span "bomb" (fun _ -> failwith "boom")
       with Failure _ -> ());
      let starts, ends =
        List.fold_left
          (fun (s, e) (_, ev) ->
            match ev with
            | Telemetry.Sink.Span_start _ -> (s + 1, e)
            | Telemetry.Sink.Span_end { attrs; _ } ->
                check Alcotest.bool "error attr present" true
                  (List.mem_assoc "error" attrs);
                (s, e + 1)
            | _ -> (s, e))
          (0, 0) (Telemetry.Sink.events sink)
      in
      check Alcotest.int "span started" 1 starts;
      check Alcotest.int "span closed despite raise" 1 ends)

(* ------------------------------------------------------------------ *)
(* Validator                                                           *)
(* ------------------------------------------------------------------ *)

let lines_of_events events =
  List.mapi
    (fun seq ev -> Telemetry.Json.to_string (Telemetry.Sink.to_json ~seq ev))
    events

let validator_accepts_valid () =
  match Telemetry.Schema.validate_lines (lines_of_events sample_events) with
  | Ok stats ->
      check Alcotest.int "lines" (List.length sample_events)
        stats.Telemetry.Schema.v_lines;
      check Alcotest.int "spans" 2 stats.Telemetry.Schema.v_spans;
      check Alcotest.int "faults" 2 stats.Telemetry.Schema.v_faults
  | Error msgs -> Alcotest.failf "valid artifact rejected: %s" (List.hd msgs)

let validator_rejects_broken () =
  let open Telemetry.Sink in
  let run = Run { schema = Telemetry.Schema.version; attrs = [] } in
  let span ?parent id =
    Span_start { id; parent; name = "s"; t_us = 0; attrs = [] }
  in
  let close id = Span_end { id; t_us = 1; attrs = [] } in
  let cases =
    [ ("unclosed span", lines_of_events [ run; span 1 ]);
      ("duplicate span id", lines_of_events [ run; span 1; span 1; close 1 ]);
      ("end without start", lines_of_events [ run; close 7 ]);
      ("missing header", lines_of_events [ span 1; close 1 ]);
      ( "fault references unknown span",
        lines_of_events
          [ run;
            Fault
              { t_us = 0; fault_class = "c"; property = "p"; node = 0;
                detail = "d"; input = None; span_path = [ 99 ] } ] );
      ("unparseable line", [ "{\"type\":\"run\""; "" ]);
      ( "seq not increasing",
        (* Hand-number both lines 0. *)
        let l = Telemetry.Json.to_string (Telemetry.Sink.to_json ~seq:0 run) in
        [ l; l ] ) ]
  in
  List.iter
    (fun (what, lines) ->
      match Telemetry.Schema.validate_lines lines with
      | Ok _ -> Alcotest.failf "validator accepted artifact with %s" what
      | Error msgs -> check Alcotest.bool what true (msgs <> []))
    cases

(* ------------------------------------------------------------------ *)
(* Determinism pin: recording must never change what DiCE finds        *)
(* ------------------------------------------------------------------ *)

(* A kill -9 (or a full disk) tears the artifact's final line mid-byte.
   The streaming reader must surface that line as a per-line [Error]
   and keep every record before it — a torn tail is the caller's
   policy decision, never a fatal parse. *)
let with_torn_artifact f =
  let path = Filename.temp_file "telemetry-test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let lines = lines_of_events sample_events in
  let whole = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  let torn =
    let last = List.nth lines (List.length lines - 1) in
    String.sub last 0 (String.length last / 2)
  in
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') whole;
  output_string oc torn;
  close_out oc;
  f path (List.length whole)

let fold_file_truncated_tail () =
  with_torn_artifact @@ fun path whole ->
  let ok, errors, last_line =
    Telemetry.Sink.fold_file path ~init:(0, 0, 0)
      ~f:(fun (ok, errors, _) ~line r ->
        match r with
        | Ok _ -> (ok + 1, errors, line)
        | Error _ -> (ok, errors + 1, line))
  in
  check Alcotest.int "every whole line decodes" whole ok;
  check Alcotest.int "exactly the torn line errors" 1 errors;
  check Alcotest.int "torn line is the final line" (whole + 1) last_line

let iter_file_truncated_tail () =
  with_torn_artifact @@ fun path whole ->
  let ok = ref 0 and errors = ref [] in
  Telemetry.Sink.iter_file path ~f:(fun ~line r ->
      match r with
      | Ok _ -> incr ok
      | Error msg -> errors := (line, msg) :: !errors);
  check Alcotest.int "every whole line decodes" whole !ok;
  match !errors with
  | [ (line, _) ] -> check Alcotest.int "error names the torn line" (whole + 1) line
  | es -> Alcotest.failf "expected one per-line error, got %d" (List.length es)

let exploration_fingerprint (x : Dice.Explorer.exploration) =
  ( x.Dice.Explorer.x_inputs,
    x.Dice.Explorer.x_distinct_paths,
    x.Dice.Explorer.x_shadow_runs,
    List.map
      (fun (f : Dice.Fault.t) ->
        (Dice.Fault.class_to_string f.Dice.Fault.f_class,
         f.Dice.Fault.f_property, f.Dice.Fault.f_node))
      x.Dice.Explorer.x_faults )

let explore_once () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 5) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  Dice.Inject.apply build
    (Dice.Inject.Prefix_hijack { at = 5; victim = 1 });
  Topology.Build.run_for build (Netsim.Time.span_sec 10.);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let params =
    { Dice.Explorer.default_params with
      Dice.Explorer.limits =
        { Concolic.Engine.max_inputs = 24; max_branches = 32; solver_nodes = 10_000 };
      fuzz_extra = 6;
      shadow_budget = 15_000 }
  in
  Dice.Explorer.explore_node ~params ~build ~cut ~gt ~node:2 ()

let disabled_sink_changes_nothing () =
  (* Memoized solver answers could mask divergence; drop them. *)
  Concolic.Solver.clear_cache ();
  Telemetry.set_sink Telemetry.Sink.noop;
  let baseline = exploration_fingerprint (explore_once ()) in
  Concolic.Solver.clear_cache ();
  let recorded =
    with_memory_sink (fun sink ->
        let fp = exploration_fingerprint (explore_once ()) in
        check Alcotest.bool "recording actually happened" true
          (Telemetry.Sink.events sink <> []);
        fp)
  in
  check Alcotest.bool "recording changes no exploration result" true
    (baseline = recorded)

let suite =
  [ Alcotest.test_case "histogram: bucket boundaries" `Quick
      histogram_bucket_boundaries;
    Alcotest.test_case "histogram: percentile edges p=0 and p=1" `Quick
      percentile_edges;
    Alcotest.test_case "histogram: empty distributions are NaN" `Quick
      percentile_empty_is_nan;
    Alcotest.test_case "events: detail thunks run only for a listening sink" `Quick
      event_thunks_run_only_when_listened;
    Alcotest.test_case "events: a shadow replay adds none" `Quick
      shadow_replay_adds_no_events;
    Alcotest.test_case "events: heal brings links up in channel order" `Quick
      heal_emits_in_channel_order;
    Alcotest.test_case "jsonl: every event round-trips" `Quick jsonl_roundtrip;
    Alcotest.test_case "jsonl: parser rejects garbage" `Quick
      json_parser_rejects_garbage;
    Alcotest.test_case "spans: nesting and parents" `Quick span_nesting;
    Alcotest.test_case "spans: closed with error attr on raise" `Quick
      span_closes_on_exception;
    Alcotest.test_case "validator: accepts a well-formed artifact" `Quick
      validator_accepts_valid;
    Alcotest.test_case "validator: rejects broken artifacts" `Quick
      validator_rejects_broken;
    Alcotest.test_case "fold_file: torn final line is per-line, not fatal"
      `Quick fold_file_truncated_tail;
    Alcotest.test_case "iter_file: torn final line is per-line, not fatal"
      `Quick iter_file_truncated_tail;
    Alcotest.test_case "pin: disabled sink changes no exploration results"
      `Slow disabled_sink_changes_nothing ]
