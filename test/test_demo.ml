(* The demo driver end to end: the built binary (declared in the test's
   deps), run as a user runs it.  Its flags describe one scenario, and
   what it files must be that run, so every filed entry replays. *)

let check = Alcotest.check

(* The built [bin/NAME.exe]. *)
let exe name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" (name ^ ".exe")))

(* Run [bin/NAME.exe] with its output captured under [dir]; return its
   exit code, stdout and stderr. *)
let run_exe name dir args =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (exe name :: args))
      ^ " >" ^ Filename.quote out ^ " 2>" ^ Filename.quote err)
  in
  (code, Test_campaign.read_file out, Test_campaign.read_file err)

let run_demo = run_exe "dice_demo"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let confuzz_repros_replay () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let corpus = Filename.concat dir "corpus" in
  let code, out, err =
    run_demo dir [ "-t"; "gadget"; "--confuzz"; "3"; "--corpus"; corpus ]
  in
  check Alcotest.int ("exit 0 (stderr: " ^ err ^ ")") 0 code;
  check Alcotest.bool "mutations drawn" true (contains out "confuzz: ");
  let entries = Triage.Corpus.load ~dir:corpus in
  check Alcotest.bool "at least one entry filed" true (entries <> []);
  List.iter
    (fun (file, entry) ->
      match entry with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok entry -> (
          match Triage.Corpus.replay entry with
          | Triage.Corpus.Confirmed _ -> ()
          | v -> Alcotest.failf "%s: %a" file Triage.Corpus.pp_verdict v))
    entries

let bad_flags_exit_cleanly () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let code, out, err = run_demo dir [ "-f"; "nosuch" ] in
  check Alcotest.bool "-f nosuch fails" true (code <> 0);
  check Alcotest.bool "-f nosuch: no uncaught exception" false
    (contains err "uncaught exception");
  check Alcotest.bool "-f nosuch: nothing deployed" false (contains out "deploying");
  (* A dispute wheel needs peering cycle members, which demo27 lacks:
     the scenario cannot be set up, which is reported, not raised. *)
  let code, _, err = run_demo dir [ "-f"; "dispute" ] in
  check Alcotest.int "-f dispute on demo27 exits 2" 2 code;
  check Alcotest.bool "-f dispute: no uncaught exception" false
    (contains err "uncaught exception")

(* The metric lines of an artifact, by name, without their timestamps. *)
let metric_lines path =
  List.rev
    (Telemetry.Sink.fold_file path ~init:[] ~f:(fun acc ~line:_ -> function
       | Ok (_, Telemetry.Sink.Metric { name; value; _ }) ->
           (name ^ " " ^ Telemetry.Json.to_string value) :: acc
       | Ok _ | Error _ -> acc))

(* Auto-triage's confirm/minimize/repair replays are not the live run:
   filing a corpus must leave the live run's artifact as it was, its
   metric values included. *)
let corpus_filing_leaves_artifact_alone () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let counts name extra =
    let path = Filename.concat dir (name ^ ".jsonl") in
    let code, _, err =
      run_demo dir ([ "-f"; "hijack"; "--rounds"; "1"; "--telemetry"; path ] @ extra)
    in
    check Alcotest.int (name ^ ": exit 0 (stderr: " ^ err ^ ")") 0 code;
    match Telemetry.Schema.validate_file path with
    | Error msgs -> Alcotest.failf "%s: invalid: %s" name (String.concat "; " msgs)
    | Ok v -> (Telemetry.Schema.(v.v_spans, v.v_faults, v.v_traces), metric_lines path)
  in
  let plain, plain_metrics = counts "plain" [] in
  let filed, filed_metrics = counts "filed" [ "--corpus"; Filename.concat dir "corpus" ] in
  let triple = Alcotest.(triple int int int) in
  check triple "spans, faults, traces" plain filed;
  check Alcotest.bool "metric lines written" true (plain_metrics <> []);
  check Alcotest.(list string) "metric lines" plain_metrics filed_metrics;
  check Alcotest.bool "entries filed" true
    (Triage.Corpus.load ~dir:(Filename.concat dir "corpus") <> [])

let suite =
  [ ("dice_demo: confuzz repros replay confirmed", `Quick, confuzz_repros_replay);
    ("dice_demo: corpus filing leaves the telemetry artifact alone", `Quick,
     corpus_filing_leaves_artifact_alone);
    ("dice_demo: bad flags and setup failures exit cleanly", `Quick,
     bad_flags_exit_cleanly) ]
