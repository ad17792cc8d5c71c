(* The campaign subsystem: spec codec + expansion, the fsync'd journal
   (torn-tail tolerance), the supervising driver (watchdog, exception
   absorption, retry, template quarantine, signature dedupe, health
   gate), and the kill-and-resume determinism guarantee. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "campaign-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* A cheap self-contained deploy scenario: the driver is exercised with
   injected runners, so the scenario is only ever decoded, re-seeded and
   filed — never actually deployed. *)
let base_scenario =
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = Triage.Scenario.Bad_gadget;
      dp_keep = None;
      dp_seed = 0;
      dp_inject = None;
      dp_settle_sec = 1.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz = [];
      dp_cascade = false;
      dp_mode =
        Triage.Scenario.Direct { dr_node = 0; dr_peer = 0; dr_input = None } }

let seed_of = function
  | Triage.Scenario.Deploy d -> d.Triage.Scenario.dp_seed
  | Triage.Scenario.Wire _ -> 0

let sig_a =
  Triage.Signature.make ~node:1 ~property:"origin" Dice.Fault.Operator_mistake
    "alpha"

let sig_b =
  Triage.Signature.make ~node:2 ~property:"convergence"
    Dice.Fault.Policy_conflict "beta"

let ok_outcome sigs =
  { Triage.Scenario.o_signatures = sigs; o_faults = []; o_error = None }

(* Deterministic fake runner: odd seeds detect one extra signature. *)
let fake_runner scenario =
  let seed = seed_of scenario in
  ok_outcome (if seed mod 2 = 0 then [ sig_a ] else [ sig_a; sig_b ])

let mk_template name seeds =
  { Campaign.Spec.t_name = name; t_seeds = seeds; t_scenario = base_scenario }

let mk_spec ?(budget = 0.) ?(retries = 0) ?(max_strikes = 2) ?(backoff = 2)
    ?(checkpoint_every = 2) templates =
  Campaign.Spec.make ~name:"test" ~scenario_budget_s:budget ~retries
    ~max_strikes ~backoff ~checkpoint_every templates

let corpus_files dir =
  let corpus = Filename.concat dir "corpus" in
  if Sys.file_exists corpus then
    List.sort String.compare (Array.to_list (Sys.readdir corpus))
  else []

let get_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

let spec_roundtrip_and_expansion () =
  let spec = mk_spec [ mk_template "a" [ 10; 11 ]; mk_template "b" [ 20 ] ] in
  let spec' =
    get_ok (Campaign.Spec.of_string (Telemetry.Json.to_string (Campaign.Spec.to_json spec)))
  in
  check Alcotest.string "digest survives the round-trip"
    (Campaign.Spec.digest spec) (Campaign.Spec.digest spec');
  let jobs = Campaign.Spec.jobs spec in
  check Alcotest.(list int) "dense template-major ids" [ 0; 1; 2 ]
    (List.map (fun j -> j.Campaign.Spec.j_id) jobs);
  check Alcotest.(list string) "template order preserved" [ "a"; "a"; "b" ]
    (List.map (fun j -> j.Campaign.Spec.j_template) jobs);
  check Alcotest.(list int) "seeds applied to the scenarios" [ 10; 11; 20 ]
    (List.map (fun j -> seed_of j.Campaign.Spec.j_scenario) jobs)

let spec_seed_ranges () =
  let scenario = Triage.Scenario.to_string base_scenario in
  let text =
    Printf.sprintf
      {|{"schema":"dice-campaign/1","name":"r","templates":[{"name":"t","seeds":{"from":7,"count":3},"scenario":%s}]}|}
      scenario
  in
  let spec = get_ok (Campaign.Spec.of_string text) in
  check Alcotest.(list int) "range expands" [ 7; 8; 9 ]
    (List.map (fun j -> j.Campaign.Spec.j_seed) (Campaign.Spec.jobs spec));
  (* Defaults fill in when knobs are absent. *)
  check Alcotest.int "default retries" 1 spec.Campaign.Spec.c_retries;
  check (Alcotest.float 0.001) "default watchdog" 60.
    spec.Campaign.Spec.c_scenario_budget_s

let spec_validation_rejects () =
  let scenario = Triage.Scenario.to_string base_scenario in
  let cases =
    [ ("wrong schema", {|{"schema":"nope/9","name":"x","templates":[]}|});
      ( "report document",
        {|{"schema":"dice-campaign/1","doc":"report","name":"x","templates":[]}|}
      );
      ("no templates", {|{"schema":"dice-campaign/1","name":"x","templates":[]}|});
      ( "empty seeds",
        Printf.sprintf
          {|{"schema":"dice-campaign/1","name":"x","templates":[{"name":"t","seeds":[],"scenario":%s}]}|}
          scenario );
      ( "duplicate template names",
        Printf.sprintf
          {|{"schema":"dice-campaign/1","name":"x","templates":[{"name":"t","seeds":[1],"scenario":%s},{"name":"t","seeds":[2],"scenario":%s}]}|}
          scenario scenario );
      ( "negative retries",
        Printf.sprintf
          {|{"schema":"dice-campaign/1","name":"x","retries":-1,"templates":[{"name":"t","seeds":[1],"scenario":%s}]}|}
          scenario ) ]
  in
  List.iter
    (fun (what, text) ->
      match Campaign.Spec.of_string text with
      | Ok _ -> Alcotest.failf "%s was accepted" what
      | Error _ -> ())
    cases

(* [make] clamps programmatic knobs to the validator's bounds — a
   checkpoint_every of 0 must not divide the driver by zero. *)
let spec_make_clamps () =
  let spec =
    Campaign.Spec.make ~name:"c" ~scenario_budget_s:0. ~retries:(-3)
      ~max_strikes:0 ~backoff:0 ~checkpoint_every:0
      [ mk_template "t" [ 1 ] ]
  in
  check Alcotest.int "retries clamped" 0 spec.Campaign.Spec.c_retries;
  check Alcotest.int "max_strikes clamped" 1 spec.Campaign.Spec.c_max_strikes;
  check Alcotest.int "backoff clamped" 1 spec.Campaign.Spec.c_backoff;
  check Alcotest.int "checkpoint_every clamped" 1
    spec.Campaign.Spec.c_checkpoint_every;
  (* And the clamped spec drives a campaign without raising. *)
  with_temp_dir @@ fun dir ->
  let r = get_ok (Campaign.Run.start ~runner:fake_runner ~dir spec) in
  check Alcotest.int "campaign completes" 1 r.Campaign.Run.r_completed

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let all_records =
  [ Campaign.Journal.Campaign { name = "n"; spec_digest = "d"; jobs = 3 };
    Campaign.Journal.Scheduled { job = 0; template = "t"; seed = 4 };
    Campaign.Journal.Started { job = 0; attempt = 1 };
    Campaign.Journal.Verdict
      { job = 0; attempt = 1; status = Campaign.Journal.Passed;
        signatures = [ "s1"; "s2" ]; cascades = []; final = true;
        wall_s = 0.25 };
    Campaign.Journal.Verdict
      { job = 1; attempt = 2; status = Campaign.Journal.Failed "boom";
        signatures = []; cascades = [ "cascade|flap-storm|3" ]; final = false;
        wall_s = 1.5 };
    Campaign.Journal.Verdict
      { job = 2; attempt = 1; status = Campaign.Journal.Hung; signatures = [];
        cascades = []; final = true; wall_s = 60. };
    Campaign.Journal.Quarantined
      { template = "t"; step = 5; strikes = 2; until = 9 };
    Campaign.Journal.Unquarantined { template = "t"; step = 9 };
    Campaign.Journal.Filed { job = 0; signature = "s1"; file = "ab.json" };
    Campaign.Journal.Checkpoint { completed = 2; filed = 1; digest = "x" };
    Campaign.Journal.End { outcome = "degraded" } ]

let journal_codec_roundtrip () =
  List.iteri
    (fun i r ->
      let json = Campaign.Journal.to_json r in
      match Campaign.Journal.of_json json with
      | Error e -> Alcotest.failf "record %d failed to decode: %s" i e
      | Ok r' ->
          check Alcotest.bool
            (Printf.sprintf "record %d round-trips" i)
            true
            (Telemetry.Json.equal json (Campaign.Journal.to_json r')))
    all_records

let journal_write_read_torn () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let w = Campaign.Journal.open_writer path in
  List.iter (Campaign.Journal.append w) all_records;
  Campaign.Journal.close w;
  (* Clean read: everything back, no warnings, the whole file committed. *)
  let contents = read_file path in
  let records, warnings, committed = get_ok (Campaign.Journal.read path) in
  check Alcotest.int "all records read" (List.length all_records)
    (List.length records);
  check Alcotest.int "no warnings" 0 (List.length warnings);
  check Alcotest.int "whole file committed" (String.length contents) committed;
  (* A torn final line (kill -9 mid-append) is dropped and reported,
     and the committed length stops before it — the truncation point
     resume uses. *)
  write_file path (contents ^ {|{"rec":"verdict","job":9,"att|});
  let records, warnings, committed = get_ok (Campaign.Journal.read path) in
  check Alcotest.int "torn tail dropped" (List.length all_records)
    (List.length records);
  check Alcotest.int "torn tail reported" 1 (List.length warnings);
  check Alcotest.int "committed length excludes the torn tail"
    (String.length contents) committed;
  (* A final line whose '\n' never hit the disk was never committed,
     even if the JSON itself parses. *)
  write_file path (String.sub contents 0 (String.length contents - 1));
  let records, warnings, committed = get_ok (Campaign.Journal.read path) in
  check Alcotest.int "unterminated final record dropped"
    (List.length all_records - 1)
    (List.length records);
  check Alcotest.int "unterminated final record reported" 1
    (List.length warnings);
  check Alcotest.bool "committed length stops at the last newline" true
    (committed < String.length contents - 1);
  (* Reopening with [truncate_at] cuts the torn tail so appends start a
     fresh line: the journal stays readable afterwards. *)
  write_file path (contents ^ {|{"rec":"verdict","job":9,"att|});
  let _, _, committed = get_ok (Campaign.Journal.read path) in
  let w = Campaign.Journal.open_writer ~truncate_at:committed path in
  Campaign.Journal.append w (List.nth all_records (List.length all_records - 1));
  Campaign.Journal.close w;
  let records, warnings, _ = get_ok (Campaign.Journal.read path) in
  check Alcotest.int "append after truncation is readable"
    (List.length all_records + 1)
    (List.length records);
  check Alcotest.int "no warnings after truncation" 0 (List.length warnings);
  (* The same damage mid-file is corruption, not a torn tail. *)
  let lines = String.split_on_char '\n' contents in
  let broken =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 3 then "{\"rec\":\"verd" else l) lines)
  in
  write_file path broken;
  (match Campaign.Journal.read path with
  | Ok _ -> Alcotest.fail "interior corruption was accepted"
  | Error _ -> ());
  (* A journal must start with the campaign header. *)
  write_file path
    (Telemetry.Json.to_string
       (Campaign.Journal.to_json (List.nth all_records 1))
    ^ "\n");
  match Campaign.Journal.read path with
  | Ok _ -> Alcotest.fail "headerless journal was accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Driver: happy path, filing, idempotent resume                       *)
(* ------------------------------------------------------------------ *)

let campaign_runs_and_reports () =
  with_temp_dir @@ fun dir ->
  let spec = mk_spec [ mk_template "a" [ 2; 3 ]; mk_template "b" [ 5 ] ] in
  let r = get_ok (Campaign.Run.start ~runner:fake_runner ~dir spec) in
  check Alcotest.int "all jobs complete" 3 r.Campaign.Run.r_completed;
  check Alcotest.int "all executed live" 3 r.Campaign.Run.r_executed;
  check Alcotest.string "outcome" "passed"
    r.Campaign.Run.r_report.Campaign.Report.r_outcome;
  check Alcotest.bool "health gate clean" false
    r.Campaign.Run.r_report.Campaign.Report.r_gate_failed;
  (* Signatures deduplicate campaign-wide before filing: 3 jobs detect
     sig_a but it is filed exactly once. *)
  check Alcotest.int "two distinct signatures filed" 2
    (List.length r.Campaign.Run.r_filed);
  check Alcotest.int "two corpus entries" 2 (List.length (corpus_files dir));
  (* The report validates as a dice-campaign/1 document. *)
  (match
     Result.bind
       (Telemetry.Artifact.read_json (Filename.concat dir "report.json"))
       Campaign.Report.validate
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report invalid: %s" e);
  (* The journal replays to the same state: resuming a finished campaign
     executes nothing and rewrites the identical report. *)
  let report_1 = read_file (Filename.concat dir "report.json") in
  let r2 = get_ok (Campaign.Run.resume ~runner:fake_runner ~dir ()) in
  check Alcotest.int "nothing re-executed" 0 r2.Campaign.Run.r_executed;
  check Alcotest.int "everything replayed" 3 r2.Campaign.Run.r_replayed;
  check Alcotest.string "report byte-identical" report_1
    (read_file (Filename.concat dir "report.json"));
  (* A second start into the same directory is refused. *)
  match Campaign.Run.start ~runner:fake_runner ~dir spec with
  | Ok _ -> Alcotest.fail "start over an existing journal was accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Kill-and-resume determinism                                         *)
(* ------------------------------------------------------------------ *)

(* Simulate kill -9 at an arbitrary journal offset: the survivor is a
   byte prefix of the journal (possibly torn mid-line) plus the corpus
   files whose [filed] records made it into that prefix.  Resume must
   reconstruct the exact final state: byte-identical report, same
   corpus file set. *)
let kill_and_resume_determinism () =
  with_temp_dir @@ fun dir_a ->
  let spec =
    mk_spec ~checkpoint_every:2
      [ mk_template "a" [ 2; 3; 4 ]; mk_template "b" [ 5; 6 ] ]
  in
  let _ = get_ok (Campaign.Run.start ~runner:fake_runner ~dir:dir_a spec) in
  let report_a = read_file (Filename.concat dir_a "report.json") in
  let journal_a = read_file (Filename.concat dir_a "journal.jsonl") in
  let lines = String.split_on_char '\n' journal_a in
  let n_lines = List.length lines - 1 (* trailing newline *) in
  let prefix_of_lines k =
    String.concat "\n" (List.filteri (fun i _ -> i < k) lines) ^ "\n"
  in
  let try_cut label prefix =
    with_temp_dir @@ fun dir_b ->
    write_file (Filename.concat dir_b "spec.json")
      (read_file (Filename.concat dir_a "spec.json"));
    write_file (Filename.concat dir_b "journal.jsonl") prefix;
    (* Corpus files whose [filed] records survived the cut were already
       on disk at kill time. *)
    Unix.mkdir (Filename.concat dir_b "corpus") 0o755;
    let records, _, _ =
      get_ok (Campaign.Journal.read (Filename.concat dir_b "journal.jsonl"))
    in
    List.iter
      (function
        | Campaign.Journal.Filed { file; _ } ->
            write_file
              (Filename.concat (Filename.concat dir_b "corpus") file)
              (read_file (Filename.concat (Filename.concat dir_a "corpus") file))
        | _ -> ())
      records;
    let r = get_ok (Campaign.Run.resume ~runner:fake_runner ~dir:dir_b ()) in
    check Alcotest.int (label ^ ": all jobs complete") 5
      r.Campaign.Run.r_completed;
    check Alcotest.string
      (label ^ ": report byte-identical to the uninterrupted run")
      report_a
      (read_file (Filename.concat dir_b "report.json"));
    check
      Alcotest.(list string)
      (label ^ ": same corpus file set")
      (corpus_files dir_a) (corpus_files dir_b)
    ;
    (* The resumed journal must itself stay recoverable: if resume
       appended onto a torn tail instead of truncating it, this read
       fails with "malformed interior line" and the directory is
       permanently unresumable. *)
    let _, warnings, _ =
      get_ok (Campaign.Journal.read (Filename.concat dir_b "journal.jsonl"))
    in
    check Alcotest.int (label ^ ": resumed journal has no torn residue") 0
      (List.length warnings);
    let r2 = get_ok (Campaign.Run.resume ~runner:fake_runner ~dir:dir_b ()) in
    check Alcotest.int (label ^ ": second resume executes nothing") 0
      r2.Campaign.Run.r_executed;
    check Alcotest.string
      (label ^ ": second resume rewrites the identical report")
      report_a
      (read_file (Filename.concat dir_b "report.json"))
  in
  (* Whole-line cuts at every point after the header, including between
     a verdict and its filed record. *)
  for k = 1 to n_lines - 1 do
    try_cut (Printf.sprintf "cut@%d" k) (prefix_of_lines k)
  done;
  (* A torn cut mid-way through the final surviving line. *)
  let torn =
    let p = prefix_of_lines (n_lines - 2) in
    String.sub journal_a 0 (String.length p + 17)
  in
  try_cut "torn" torn

(* ------------------------------------------------------------------ *)
(* Fault isolation: hangs, crashes, quarantine, fleet progress         *)
(* ------------------------------------------------------------------ *)

let isolation_runner scenario =
  let seed = seed_of scenario in
  if seed >= 100 && seed < 200 then begin
    (* A wedged replay: longer than the watchdog, but finite so the
       leaked worker domain unwinds after the test. *)
    Unix.sleepf 0.4;
    ok_outcome []
  end
  else if seed >= 200 then failwith "injected crash"
  else ok_outcome [ sig_a ]

let faulty_templates_quarantined_fleet_progresses () =
  with_temp_dir @@ fun dir ->
  let spec =
    mk_spec ~budget:0.05 ~max_strikes:1 ~backoff:2
      [ mk_template "hang" [ 100; 101 ]; mk_template "boom" [ 200; 201 ];
        mk_template "good" [ 1; 2; 3 ] ]
  in
  let r = get_ok (Campaign.Run.start ~runner:isolation_runner ~dir spec) in
  (* The fleet progressed: every job got a final verdict, no exception
     escaped, and the healthy template's detections were filed. *)
  check Alcotest.int "all jobs complete" 7 r.Campaign.Run.r_completed;
  check Alcotest.(list string) "healthy detections filed"
    [ Triage.Signature.to_string sig_a ]
    r.Campaign.Run.r_filed;
  let report = r.Campaign.Run.r_report in
  check Alcotest.string "outcome degraded" "degraded"
    report.Campaign.Report.r_outcome;
  (* Per-template verdicts from the report document. *)
  let tpl name field =
    match Telemetry.Json.member "templates" report.Campaign.Report.r_json with
    | Some (Telemetry.Json.List ts) -> (
        match
          List.find_opt
            (fun t ->
              Telemetry.Json.member "name" t
              = Some (Telemetry.Json.String name))
            ts
        with
        | Some t -> (
            match Telemetry.Json.member field t with
            | Some (Telemetry.Json.Int n) -> n
            | _ -> Alcotest.failf "missing %s.%s" name field)
        | None -> Alcotest.failf "missing template %s" name)
    | _ -> Alcotest.fail "missing templates section"
  in
  check Alcotest.int "good: all ok" 3 (tpl "good" "ok");
  check Alcotest.int "hang: all hung" 2 (tpl "hang" "hung");
  check Alcotest.int "boom: all absorbed as errors" 2 (tpl "boom" "error");
  check Alcotest.bool "hang was quarantined" true (tpl "hang" "quarantines" >= 1);
  check Alcotest.bool "boom was quarantined" true (tpl "boom" "quarantines" >= 1);
  (* Quarantine backoff is exponential: each successive park of the same
     template is longer than the one before. *)
  let records, _, _ =
    get_ok (Campaign.Journal.read (Filename.concat dir "journal.jsonl"))
  in
  let parks =
    List.filter_map
      (function
        | Campaign.Journal.Quarantined { template = "boom"; step; until; _ } ->
            Some (until - step)
        | _ -> None)
      records
  in
  check Alcotest.bool "two parks for boom" true (List.length parks >= 2);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check Alcotest.bool "backoff grows" true (increasing parks)

(* ------------------------------------------------------------------ *)
(* Retry for flaky verdicts                                            *)
(* ------------------------------------------------------------------ *)

let retry_flaky_jobs () =
  with_temp_dir @@ fun dir ->
  let attempts = Hashtbl.create 4 in
  let flaky_runner scenario =
    let seed = seed_of scenario in
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts seed) in
    Hashtbl.replace attempts seed n;
    if n = 1 then
      { Triage.Scenario.o_signatures = []; o_faults = [];
        o_error = Some "flaky deploy" }
    else ok_outcome [ sig_a ]
  in
  let spec = mk_spec ~retries:1 [ mk_template "t" [ 1; 2 ] ] in
  let r = get_ok (Campaign.Run.start ~runner:flaky_runner ~dir spec) in
  let report = r.Campaign.Run.r_report in
  check Alcotest.string "second attempts rescue the campaign" "passed"
    report.Campaign.Report.r_outcome;
  (match Telemetry.Json.member "jobs" report.Campaign.Report.r_json with
  | Some jobs -> (
      match Telemetry.Json.member "retried" jobs with
      | Some (Telemetry.Json.Int n) -> check Alcotest.int "both jobs retried" 2 n
      | _ -> Alcotest.fail "missing jobs.retried")
  | None -> Alcotest.fail "missing jobs section");
  (* The journal shows the non-final first attempts. *)
  let records, _, _ =
    get_ok (Campaign.Journal.read (Filename.concat dir "journal.jsonl"))
  in
  let non_final =
    List.length
      (List.filter
         (function
           | Campaign.Journal.Verdict { final = false; _ } -> true | _ -> false)
         records)
  in
  check Alcotest.int "two non-final verdicts journaled" 2 non_final

(* ------------------------------------------------------------------ *)
(* Health gate                                                         *)
(* ------------------------------------------------------------------ *)

(* The runner emits a quarantine ping-pong into whatever sink is
   current: the driver's per-job online monitor must catch it, journal
   the cascade root with the verdict, and fail the health gate. *)
let pingpong_runner _scenario =
  Telemetry.sys_event ~t_us:1_000 ~kind:"quarantine" ~nodes:[ 7 ] ~detail:"t" ();
  Telemetry.sys_event ~t_us:2_000 ~kind:"unquarantine" ~nodes:[ 7 ] ~detail:"t" ();
  Telemetry.sys_event ~t_us:3_000 ~kind:"quarantine" ~nodes:[ 7 ] ~detail:"t" ();
  ok_outcome []

let health_gate_fails_on_cascade () =
  with_temp_dir @@ fun dir ->
  let spec = mk_spec [ mk_template "t" [ 1 ] ] in
  let r = get_ok (Campaign.Run.start ~runner:pingpong_runner ~dir spec) in
  let report = r.Campaign.Run.r_report in
  check Alcotest.bool "gate failed" true report.Campaign.Report.r_gate_failed;
  check Alcotest.string "outcome failed" "failed"
    report.Campaign.Report.r_outcome;
  (* The gate decision is part of the journaled verdict, so a resume
     reproduces it without re-running the monitor. *)
  let report_1 = read_file (Filename.concat dir "report.json") in
  let r2 = get_ok (Campaign.Run.resume ~runner:(fun _ -> ok_outcome []) ~dir ()) in
  check Alcotest.bool "gate failure survives resume" true
    r2.Campaign.Run.r_report.Campaign.Report.r_gate_failed;
  check Alcotest.string "report byte-identical" report_1
    (read_file (Filename.concat dir "report.json"))

(* ------------------------------------------------------------------ *)
(* Report validation                                                   *)
(* ------------------------------------------------------------------ *)

let report_validator_rejects () =
  with_temp_dir @@ fun dir ->
  let spec = mk_spec [ mk_template "t" [ 1 ] ] in
  let r = get_ok (Campaign.Run.start ~runner:fake_runner ~dir spec) in
  let json = r.Campaign.Run.r_report.Campaign.Report.r_json in
  check Alcotest.bool "driver report accepted" true
    (Result.is_ok (Campaign.Report.validate json));
  let patch name v =
    match json with
    | Telemetry.Json.Obj fields ->
        Telemetry.Json.Obj
          (List.map (fun (k, old) -> (k, if k = name then v else old)) fields)
    | _ -> assert false
  in
  List.iter
    (fun (what, doc) ->
      match Campaign.Report.validate doc with
      | Ok () -> Alcotest.failf "%s was accepted" what
      | Error _ -> ())
    [ ("wrong schema", patch "schema" (Telemetry.Json.String "nope/1"));
      ("spec document", patch "doc" (Telemetry.Json.String "spec"));
      ("unknown outcome", patch "outcome" (Telemetry.Json.String "maybe"));
      ( "outcome contradicting the gate",
        patch "outcome" (Telemetry.Json.String "failed") );
      ( "health gate contradicting cascades",
        patch "health"
          (Telemetry.Json.Obj
             [ ("cascades", Telemetry.Json.List []);
               ("gate", Telemetry.Json.String "failed") ]) ) ]

(* ------------------------------------------------------------------ *)

let suite =
  [ ("spec: round-trip + expansion", `Quick, spec_roundtrip_and_expansion);
    ("spec: seed ranges + defaults", `Quick, spec_seed_ranges);
    ("spec: validator rejects", `Quick, spec_validation_rejects);
    ("spec: make clamps knobs", `Quick, spec_make_clamps);
    ("journal: codec round-trip", `Quick, journal_codec_roundtrip);
    ("journal: torn tail tolerated, corruption fatal", `Quick,
     journal_write_read_torn);
    ("driver: runs, files, reports, idempotent resume", `Quick,
     campaign_runs_and_reports);
    ("driver: kill-and-resume is deterministic", `Quick,
     kill_and_resume_determinism);
    ("driver: faulty templates quarantined, fleet progresses", `Slow,
     faulty_templates_quarantined_fleet_progresses);
    ("driver: flaky verdicts retry", `Quick, retry_flaky_jobs);
    ("driver: cascade health gate", `Quick, health_gate_fails_on_cascade);
    ("report: validator rejects", `Quick, report_validator_rejects) ]
