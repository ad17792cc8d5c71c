(* The fault-triage engine: stable signatures, the delta-debugging
   minimizer, and the persistent regression corpus. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Shared scenarios                                                    *)
(* ------------------------------------------------------------------ *)

(* The same 6-node Internet as test_dice's [small_build]. *)
let small_random =
  Triage.Scenario.Random { r_seed = 5; r_tier1 = 1; r_transit = 2; r_stub = 3 }

let fast_exploration =
  { Triage.Scenario.default_exploration with
    Triage.Scenario.ex_max_inputs = 24;
    ex_max_branches = 32;
    ex_solver_nodes = 10_000;
    ex_fuzz_extra = 6;
    ex_shadow_budget = 15_000 }

let hijack_explore =
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = small_random;
      dp_keep = None;
      dp_seed = 5;
      dp_inject = Some (Dice.Inject.Prefix_hijack { at = 5; victim = 4 });
      dp_settle_sec = 5.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz = [];
      dp_cascade = false;
      dp_mode = Triage.Scenario.Explore fast_exploration }

let dispute_direct =
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = Triage.Scenario.Bad_gadget;
      dp_keep = None;
      dp_seed = 7;
      dp_inject =
        Some (Dice.Inject.Policy_dispute { cycle = [ 1; 2; 3 ]; victim = 0 });
      dp_settle_sec = 5.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz = [];
      dp_cascade = false;
      dp_mode = Triage.Scenario.Direct { dr_node = 0; dr_peer = 0; dr_input = None } }

let signature_strings outcome =
  List.sort_uniq String.compare
    (List.map Triage.Signature.to_string outcome.Triage.Scenario.o_signatures)

let with_temp_dir f =
  let dir = Filename.temp_file "triage-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

let signature_roundtrip () =
  let graph = Topology.Gadget.bad_gadget () in
  let sigs =
    [ Triage.Signature.make ~graph ~node:2 ~property:"origin-authenticity"
        Dice.Fault.Operator_mistake "node 7 originated 10.0.0.0/8 owned by 3";
      Triage.Signature.make ~role:Triage.Signature.wire_role ~node:(-1)
        ~property:"codec-crash" Dice.Fault.Programming_error "len 4097 > max";
      (* detail containing the field separator must survive *)
      Triage.Signature.make ~node:0 ~property:"p" Dice.Fault.Policy_conflict
        "evidence | with | pipes" ]
  in
  List.iter
    (fun sg ->
      match Triage.Signature.of_string (Triage.Signature.to_string sg) with
      | Ok sg' ->
          check Alcotest.string "round-trips"
            (Triage.Signature.to_string sg)
            (Triage.Signature.to_string sg')
      | Error e -> Alcotest.failf "of_string failed: %s" e)
    sigs;
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Triage.Signature.of_string "not-a-signature"))

(* Same detections, same fingerprints, when the same run is made
   twice. *)
let signature_stability_across_runs () =
  let run () =
    let params =
      { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
    in
    let graph = Topology.Generate.generate ~params (Netsim.Rng.create 5) in
    let build = Topology.Build.deploy ~seed:5 graph in
    Topology.Build.start_all build;
    assert (Topology.Build.converge build);
    Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = 5; victim = 4 });
    Topology.Build.run_for build (Netsim.Time.span_sec 5.);
    let gt = Dice.Checks.ground_truth_of_graph graph in
    let params =
      { Dice.Explorer.default_params with
        Dice.Explorer.limits =
          { Concolic.Engine.max_inputs = 24; max_branches = 32; solver_nodes = 10_000 };
        fuzz_extra = 6;
        shadow_budget = 15_000 }
    in
    let summary = Dice.Orchestrator.run ~params ~build ~gt ~rounds:6 () in
    List.sort_uniq String.compare
      (List.map
         (fun (sg, _) -> Triage.Signature.to_string sg)
         summary.Dice.Orchestrator.signatures)
  in
  let first = run () in
  Alcotest.(check bool) "the run detects something" true (first <> []);
  Alcotest.(check (list string)) "identical signature sets" first (run ())

(* ------------------------------------------------------------------ *)
(* ddmin                                                               *)
(* ------------------------------------------------------------------ *)

let ddmin_generic () =
  let wanted = [ 3; 7; 15 ] in
  let test subset = List.for_all (fun w -> List.mem w subset) wanted in
  let items = List.init 20 (fun i -> i) in
  let r1 = Triage.Minimize.ddmin ~test items in
  let r2 = Triage.Minimize.ddmin ~test items in
  check Alcotest.(list int) "exactly the needed elements" wanted r1;
  check Alcotest.(list int) "deterministic" r1 r2;
  check Alcotest.(list int) "vacuous test -> empty" []
    (Triage.Minimize.ddmin ~test:(fun _ -> true) items);
  (* duplicates are handled positionally *)
  let dup = [ 1; 1; 2; 1 ] in
  let test subset = List.mem 2 subset in
  check Alcotest.(list int) "duplicates" [ 2 ] (Triage.Minimize.ddmin ~test dup)

(* ------------------------------------------------------------------ *)
(* Scenario codec and replay                                           *)
(* ------------------------------------------------------------------ *)

let scenario_json_roundtrip () =
  let rich =
    Triage.Scenario.Deploy
      { Triage.Scenario.dp_topo = small_random;
        dp_keep = Some [ 0; 2; 4 ];
        dp_seed = 11;
        dp_inject =
          Some
            (Dice.Inject.Crash_bug
               { at = 1; community = Bgp.Community.make 64999 13 });
        dp_settle_sec = 2.5;
        dp_churn =
          [ Netsim.Churn.entry ~at:(Netsim.Time.span_sec 1.) (Netsim.Churn.Node_down 2);
            Netsim.Churn.entry ~at:(Netsim.Time.span_sec 2.)
              (Netsim.Churn.Link_down (0, 4));
            Netsim.Churn.entry ~at:(Netsim.Time.span_sec 3.)
              (Netsim.Churn.Partition ([ 0; 2 ], [ 4 ]));
            Netsim.Churn.entry ~at:(Netsim.Time.span_sec 4.) Netsim.Churn.Heal ];
        dp_mangle =
          Some
            { Triage.Scenario.mg_seed = 9;
              mg_rate = 0.25;
              mg_kinds = [ Netsim.Mangler.Bit_flip; Netsim.Mangler.Truncate ];
              mg_schedule =
                [ Netsim.Mangler.entry ~at:(Netsim.Time.span_sec 1.)
                    (Netsim.Mangler.Set_rate 0.5);
                  Netsim.Mangler.entry ~at:(Netsim.Time.span_sec 2.)
                    (Netsim.Mangler.Set_kinds [ Netsim.Mangler.Drop ]);
                  Netsim.Mangler.entry ~at:(Netsim.Time.span_sec 3.)
                    (Netsim.Mangler.Set_links (Some [ (0, 2); (2, 4) ])) ];
              mg_fragile_node = Some 2 };
        dp_confuzz =
          [ Confuzz.Mutation.Action_flip { node = 0; map = "FROM-PEER"; seq = 10 };
            Confuzz.Mutation.Te_pin
              { node = 1;
                map = "FROM-PEER";
                prefix = Bgp.Prefix.of_string_exn "192.0.0.0/24";
                via_asn = 1002;
                pref = 300 } ];
        dp_cascade = true;
        dp_mode =
          Triage.Scenario.Direct
            { dr_node = 0; dr_peer = 1; dr_input = Some [ ("community", 3) ] } }
  in
  let wire = Triage.Scenario.Wire "\x00\xff\x7f framed \n bytes" in
  (* A @FILE topology travels as its Topo_file text. *)
  let text = Topology.Topo_file.render (Triage.Scenario.base_graph small_random) in
  let file_topo =
    match hijack_explore with
    | Triage.Scenario.Deploy d ->
        Triage.Scenario.Deploy { d with dp_topo = Triage.Scenario.File text }
    | w -> w
  in
  check Alcotest.string "file topology rebuilds its graph" text
    (Topology.Topo_file.render (Triage.Scenario.base_graph (Triage.Scenario.File text)));
  List.iter
    (fun s ->
      match Triage.Scenario.of_string (Triage.Scenario.to_string s) with
      | Ok s' ->
          Alcotest.(check bool) "round-trips" true (Triage.Scenario.equal s s')
      | Error e -> Alcotest.failf "scenario decode failed: %s" e)
    [ rich; wire; hijack_explore; dispute_direct; file_topo ];
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Triage.Scenario.of_string "{\"scenario\":\"nope\"}"))

let scenario_replay_deterministic () =
  let o1 = Triage.Scenario.run dispute_direct in
  let o2 = Triage.Scenario.run dispute_direct in
  Alcotest.(check (list string))
    "same signatures on every replay" (signature_strings o1) (signature_strings o2);
  Alcotest.(check bool) "detects the dispute" true (signature_strings o1 <> [])

(* ------------------------------------------------------------------ *)
(* Minimizer end-to-end                                                *)
(* ------------------------------------------------------------------ *)

let minimize_hijack_end_to_end () =
  let outcome = Triage.Scenario.run hijack_explore in
  let sg =
    match outcome.Triage.Scenario.o_signatures with
    | sg :: _ -> sg
    | [] -> Alcotest.fail "hijack exploration detected nothing"
  in
  let r1 = Triage.Minimize.run ~max_tests:80 ~target:sg hijack_explore in
  let r2 = Triage.Minimize.run ~max_tests:80 ~target:sg hijack_explore in
  Alcotest.(check bool)
    "strictly smaller" true
    (r1.Triage.Minimize.r_minimized_size < r1.Triage.Minimize.r_original_size);
  check Alcotest.string "byte-identical across runs"
    (Triage.Scenario.to_string r1.Triage.Minimize.r_minimized)
    (Triage.Scenario.to_string r2.Triage.Minimize.r_minimized);
  check Alcotest.int "same replay count" r1.Triage.Minimize.r_tests
    r2.Triage.Minimize.r_tests;
  Alcotest.(check bool)
    "minimized repro still detects the signature" true
    (Triage.Scenario.detects r1.Triage.Minimize.r_minimized sg)

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let corpus_roundtrip () =
  with_temp_dir @@ fun dir ->
  let outcome = Triage.Scenario.run dispute_direct in
  let sg = List.hd outcome.Triage.Scenario.o_signatures in
  let e1 = Triage.Corpus.add ~dir ~now:100. sg dispute_direct in
  check Alcotest.int "first filing" 1 e1.Triage.Corpus.e_hits;
  (* a re-filing with a larger repro bumps hits but keeps the smaller
     scenario *)
  let bigger =
    match dispute_direct with
    | Triage.Scenario.Deploy d ->
        Triage.Scenario.Deploy
          { d with Triage.Scenario.dp_mode = Triage.Scenario.Explore fast_exploration }
    | w -> w
  in
  let e2 = Triage.Corpus.add ~dir ~now:200. sg bigger in
  check Alcotest.int "hits bumped" 2 e2.Triage.Corpus.e_hits;
  Alcotest.(check bool)
    "kept the smaller repro" true
    (Triage.Scenario.equal e2.Triage.Corpus.e_scenario dispute_direct);
  check (Alcotest.float 0.01) "first_seen preserved" 100. e2.Triage.Corpus.e_first_seen;
  check (Alcotest.float 0.01) "last_seen bumped" 200. e2.Triage.Corpus.e_last_seen;
  (match Triage.Corpus.load ~dir with
  | [ (_, Ok e) ] ->
      check Alcotest.string "loads back" (Triage.Signature.to_string sg)
        (Triage.Signature.to_string e.Triage.Corpus.e_signature)
  | other -> Alcotest.failf "expected one valid entry, got %d" (List.length other));
  (match Triage.Corpus.find ~dir sg with
  | Some e -> (
      match Triage.Corpus.replay e with
      | Triage.Corpus.Confirmed _ -> ()
      | v -> Alcotest.failf "expected Confirmed, got %a" Triage.Corpus.pp_verdict v)
  | None -> Alcotest.fail "find missed the entry");
  Alcotest.(check bool) "remove" true (Triage.Corpus.remove ~dir sg);
  check Alcotest.int "empty after remove" 0 (List.length (Triage.Corpus.load ~dir))

let corpus_validator_rejects () =
  let ok_entry =
    Triage.Corpus.entry_to_json
      { Triage.Corpus.e_signature =
          Triage.Signature.make ~node:0 ~property:"p" Dice.Fault.Operator_mistake "d";
        e_scenario = Triage.Scenario.Wire "x";
        e_first_seen = 1.;
        e_last_seen = 2.;
        e_hits = 1;
        e_env = [];
        e_repair = None }
  in
  Alcotest.(check bool) "well-formed accepted" true
    (Result.is_ok (Triage.Corpus.validate ok_entry));
  let patch name v =
    match ok_entry with
    | Telemetry.Json.Obj fields ->
        Telemetry.Json.Obj
          (List.map (fun (k, old) -> (k, if k = name then v else old)) fields)
    | _ -> assert false
  in
  let drop name =
    match ok_entry with
    | Telemetry.Json.Obj fields ->
        Telemetry.Json.Obj (List.filter (fun (k, _) -> k <> name) fields)
    | _ -> assert false
  in
  List.iter
    (fun (label, broken) ->
      Alcotest.(check bool) label true
        (Result.is_error (Triage.Corpus.validate broken)))
    [ ("wrong schema", patch "schema" (Telemetry.Json.String "dice-corpus/0"));
      ("missing signature", drop "signature");
      ("bad signature", patch "signature" (Telemetry.Json.String "junk"));
      ("missing scenario", drop "scenario");
      ("bad scenario", patch "scenario" (Telemetry.Json.String "junk"));
      ("zero hits", patch "hits" (Telemetry.Json.Int 0));
      ("missing first_seen", drop "first_seen") ]

let corpus_repair_record () =
  let module J = Telemetry.Json in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let base =
    { Triage.Corpus.e_signature =
        Triage.Signature.make ~node:0 ~property:"p" Dice.Fault.Operator_mistake "d";
      e_scenario = Triage.Scenario.Wire "x";
      e_first_seen = 1.;
      e_last_seen = 2.;
      e_hits = 1;
      e_env = [];
      e_repair = None }
  in
  (* Legacy pin: a record-less entry encodes without the member and
     round-trips byte-unchanged through decode/encode. *)
  let legacy = J.to_string (Triage.Corpus.entry_to_json base) in
  Alcotest.(check bool) "legacy encoding has no repair member" false
    (contains legacy "\"repair\"");
  (match Triage.Corpus.entry_of_string legacy with
  | Ok e ->
      Alcotest.(check bool) "decodes with no record" true
        (e.Triage.Corpus.e_repair = None);
      check Alcotest.string "legacy round-trips byte-unchanged" legacy
        (J.to_string (Triage.Corpus.entry_to_json e))
  | Error e -> Alcotest.failf "legacy entry rejected: %s" e);
  let record status =
    J.Obj [ ("schema", J.String "dice-repair/1"); ("status", J.String status) ]
  in
  List.iter
    (fun (status, expect) ->
      let json =
        Triage.Corpus.entry_to_json
          { base with Triage.Corpus.e_repair = Some (record status) }
      in
      match Triage.Corpus.validate json with
      | Ok e ->
          check Alcotest.string
            (Printf.sprintf "status %s maps to %s" status expect)
            expect
            (Triage.Corpus.repair_status_name (Triage.Corpus.repair_status e));
          check Alcotest.string "repair entry round-trips"
            (J.to_string json)
            (J.to_string (Triage.Corpus.entry_to_json e))
      | Error e -> Alcotest.failf "repair entry rejected: %s" e)
    [ ("verified", "verified"); ("candidate", "candidate");
      ("none-found", "none") ];
  Alcotest.(check bool) "wrong repair schema rejected" true
    (Result.is_error
       (Triage.Corpus.validate
          (Triage.Corpus.entry_to_json
             { base with
               Triage.Corpus.e_repair =
                 Some (J.Obj [ ("schema", J.String "dice-repair/0") ]) })))

let corpus_set_repair_and_patched_scenario () =
  let module J = Telemetry.Json in
  with_temp_dir @@ fun dir ->
  let sg =
    Triage.Signature.make ~node:3 ~property:"convergence"
      Dice.Fault.Policy_conflict "d"
  in
  let entry = Triage.Corpus.add ~dir ~now:1. sg dispute_direct in
  let drop =
    Confuzz.Mutation.Network_drop
      { node = 9; prefix = Bgp.Prefix.of_string_exn "192.0.0.0/24" }
  in
  let record =
    J.Obj
      [ ("schema", J.String "dice-repair/1");
        ("status", J.String "verified");
        ("patch", J.List [ Confuzz.Mutation.to_json drop ]) ]
  in
  let entry' = Triage.Corpus.set_repair ~dir entry record in
  (* persisted: a fresh load sees the record *)
  (match Triage.Corpus.find ~dir sg with
  | Some e ->
      Alcotest.(check bool) "record persisted" true
        (e.Triage.Corpus.e_repair = Some record)
  | None -> Alcotest.fail "entry vanished after set_repair");
  (match Triage.Corpus.patched_scenario entry' with
  | Some (Triage.Scenario.Deploy d) -> (
      match List.rev d.Triage.Scenario.dp_confuzz with
      | last :: _ ->
          Alcotest.(check bool) "patch appended to dp_confuzz" true (last = drop)
      | [] -> Alcotest.fail "patched scenario has no mutations")
  | _ -> Alcotest.fail "patched_scenario must produce a deploy");
  (* re-filing a smaller repro drops the now-unverified record *)
  let e2 = Triage.Corpus.add ~dir ~now:2. sg dispute_direct in
  Alcotest.(check bool) "same-scenario refile keeps the record" true
    (e2.Triage.Corpus.e_repair = Some record)

let corpus_gc () =
  with_temp_dir @@ fun dir ->
  let outcome = Triage.Scenario.run dispute_direct in
  let sg = List.hd outcome.Triage.Scenario.o_signatures in
  ignore (Triage.Corpus.add ~dir ~now:1. sg dispute_direct);
  (* a signature whose repro no longer detects it *)
  let stale_sig =
    Triage.Signature.make ~node:42 ~property:"never-detected"
      Dice.Fault.Programming_error "gone"
  in
  ignore (Triage.Corpus.add ~dir ~now:1. stale_sig dispute_direct);
  (* a torn file *)
  let oc = open_out (Filename.concat dir "torn.json") in
  output_string oc "{\"schema\":";
  close_out oc;
  let removed = Triage.Corpus.gc ~dir in
  check Alcotest.int "two entries dropped" 2 (List.length removed);
  match Triage.Corpus.load ~dir with
  | [ (_, Ok e) ] ->
      check Alcotest.string "survivor is the confirmed one"
        (Triage.Signature.to_string sg)
        (Triage.Signature.to_string e.Triage.Corpus.e_signature)
  | other -> Alcotest.failf "expected one survivor, got %d" (List.length other)

(* A torn entry (kill -9 racing the atomic rename, manual truncation)
   must never abort the whole load: it is skipped and reported while
   every intact entry still loads. *)
let corpus_load_skips_torn_entries () =
  with_temp_dir @@ fun dir ->
  let outcome = Triage.Scenario.run dispute_direct in
  let sg = List.hd outcome.Triage.Scenario.o_signatures in
  ignore (Triage.Corpus.add ~dir ~now:1. sg dispute_direct);
  (* Truncate a copy of the valid entry to simulate a torn write. *)
  let valid = Filename.concat dir (Triage.Corpus.filename_of sg) in
  let contents =
    let ic = open_in_bin valid in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let torn = Filename.concat dir "00000000000000000000000000000000.json" in
  let oc = open_out_bin torn in
  output_string oc (String.sub contents 0 (String.length contents / 2));
  close_out oc;
  let entries = Triage.Corpus.load ~dir in
  check Alcotest.int "both files surface" 2 (List.length entries);
  let oks, errors =
    List.partition (fun (_, r) -> Result.is_ok r) entries
  in
  (match oks with
  | [ (_, Ok e) ] ->
      check Alcotest.string "intact entry loads" (Triage.Signature.to_string sg)
        (Triage.Signature.to_string e.Triage.Corpus.e_signature)
  | _ -> Alcotest.failf "expected exactly one intact entry");
  match errors with
  | [ (file, Error msg) ] ->
      check Alcotest.string "torn file named" "00000000000000000000000000000000.json"
        (Filename.basename file);
      check Alcotest.bool "error is reported, not raised" true (String.length msg > 0)
  | _ -> Alcotest.failf "expected exactly one torn entry"

(* Template expansion: with_seed re-seeds every derived stream of a
   deploy scenario deterministically and leaves wire cases alone. *)
let scenario_with_seed () =
  let reseeded = Triage.Scenario.with_seed 99 hijack_explore in
  (match reseeded with
  | Triage.Scenario.Deploy d ->
      check Alcotest.int "deploy seed replaced" 99 d.Triage.Scenario.dp_seed
  | _ -> Alcotest.fail "expected a deploy scenario");
  Alcotest.(check bool)
    "same seed is the identity on the seed" true
    (Triage.Scenario.equal
       (Triage.Scenario.with_seed 5 hijack_explore)
       hijack_explore);
  let wire = Triage.Scenario.Wire "\x01\x02" in
  Alcotest.(check bool) "wire scenarios unchanged" true
    (Triage.Scenario.equal (Triage.Scenario.with_seed 99 wire) wire)

(* ------------------------------------------------------------------ *)
(* Dedupe keeps the earliest representative (regression pin)           *)
(* ------------------------------------------------------------------ *)

let dedupe_keeps_earliest () =
  let mk at detail =
    Dice.Fault.make ~at:(Netsim.Time.of_us at) ~node:1 ~property:"x"
      Dice.Fault.Operator_mistake detail
  in
  let late = mk 900 "late" in
  let early = mk 100 "early" in
  let mid = mk 500 "mid" in
  match Dice.Fault.dedupe [ late; early; mid ] with
  | [ f ] ->
      check Alcotest.int "earliest detection time" 100
        (Netsim.Time.to_us f.Dice.Fault.f_detected_at);
      check Alcotest.string "earliest representative" "early" f.Dice.Fault.f_detail
  | l -> Alcotest.failf "expected one representative, got %d" (List.length l)

let suite =
  [ ("signature: round-trip", `Quick, signature_roundtrip);
    ("signature: stable across runs", `Slow, signature_stability_across_runs);
    ("ddmin: minimal and deterministic", `Quick, ddmin_generic);
    ("scenario: JSON round-trip", `Quick, scenario_json_roundtrip);
    ("scenario: deterministic replay", `Slow, scenario_replay_deterministic);
    ("minimize: hijack end-to-end", `Slow, minimize_hijack_end_to_end);
    ("corpus: add/load/replay/remove", `Slow, corpus_roundtrip);
    ("corpus: validator rejects", `Quick, corpus_validator_rejects);
    ("corpus: repair record optional and pinned", `Quick, corpus_repair_record);
    ("corpus: set_repair and patched_scenario", `Quick,
     corpus_set_repair_and_patched_scenario);
    ("corpus: gc drops stale entries", `Slow, corpus_gc);
    ("corpus: load skips torn entries", `Slow, corpus_load_skips_torn_entries);
    ("scenario: with_seed expansion", `Quick, scenario_with_seed);
    ("fault: dedupe keeps earliest", `Quick, dedupe_keeps_earliest) ]
