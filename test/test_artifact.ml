(* The artifact kit: the atomic replace every schema-tagged artifact
   goes through, and telemetry_check's schema dispatch over one file of
   each kind, each written by its real writer.  The checker is the
   built binary (declared in the test's deps), run as CI runs it. *)

module A = Telemetry.Artifact
module J = Telemetry.Json

let check = Alcotest.check

let checker =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "telemetry_check.exe"))

let exit_code args =
  Sys.command
    (String.concat " " (List.map Filename.quote (checker :: args))
    ^ " >/dev/null 2>&1")

let accepts what path = check Alcotest.int (what ^ " accepted") 0 (exit_code [ path ])
let rejects what path = check Alcotest.int (what ^ " rejected") 1 (exit_code [ path ])

(* ------------------------------------------------------------------ *)

let write_atomic_replaces () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "doc.json" in
  let old_bytes = String.make 65536 'a' ^ "\n" in
  let new_bytes = String.make 1000 'b' ^ "\n" in
  A.write_atomic ~path old_bytes;
  (* A tmp file left behind by a writer killed mid-write is overwritten,
     not appended to. *)
  Out_channel.with_open_bin (path ^ ".tmp") (fun oc -> output_string oc "torn");
  A.write_atomic ~path new_bytes;
  check Alcotest.string "new bytes" new_bytes (A.read_file path);
  check Alcotest.bool "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  (* A reader racing the replacements sees one whole version or the
     other, never a truncated or half-written file. *)
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to 40 do
          A.write_atomic ~path (if i mod 2 = 0 then old_bytes else new_bytes)
        done)
  in
  let torn = ref 0 in
  for _ = 1 to 400 do
    let got = A.read_file path in
    if not (String.equal got old_bytes || String.equal got new_bytes) then incr torn
  done;
  Domain.join writer;
  check Alcotest.int "torn reads" 0 !torn;
  check Alcotest.bool "no tmp left after the race" false (Sys.file_exists (path ^ ".tmp"))

(* ------------------------------------------------------------------ *)

let signature =
  Dice.Signature.make ~node:1 ~property:"origin" Dice.Fault.Operator_mistake
    "10.0.1.0/24 originated by 1009"

let repair_record =
  let evidence =
    { Repair.Localize.ev_target = signature; ev_baseline = [ signature ];
      ev_fault_nodes = [ 1 ]; ev_suspects = [] }
  in
  Repair.Report.of_outcome
    { Repair.Search.re_target = signature; re_evidence = evidence;
      re_candidates = []; re_verified = None }

let dispatches_every_schema () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let file name = Filename.concat dir name in
  (* dice-telemetry/1 *)
  Telemetry.with_jsonl (file "run.jsonl") (fun () ->
      Telemetry.with_span "explore" (fun _ -> ()));
  accepts "telemetry run" (file "run.jsonl");
  (* dice-cascade/1, with no flag *)
  let tl = Cascade.Timeline.of_events [] in
  let propagation, cascades = Cascade.Detect.run tl in
  A.write_json ~path:(file "cascade.json")
    (Cascade.Report.to_json ~timeline:tl ~propagation cascades);
  accepts "cascade report" (file "cascade.json");
  (* dice-campaign/1: spec and report *)
  Campaign.Spec.save ~path:(file "spec.json")
    (Campaign.Spec.make ~name:"kit"
       [ { Campaign.Spec.t_name = "wire"; t_seeds = [ 1 ];
           t_scenario = Triage.Scenario.Wire "\255" } ]);
  accepts "campaign spec" (file "spec.json");
  let report =
    Campaign.Report.build ~name:"kit" ~spec_digest:"d" ~templates:[ "wire" ]
      ~total:1 ~finals:[] ~quarantines:[] ~filed:[]
  in
  A.write_json ~path:(file "report.json") report.Campaign.Report.r_json;
  accepts "campaign report" (file "report.json");
  (* dice-repair/1 *)
  A.write_json ~path:(file "repair.json") repair_record;
  accepts "repair record" (file "repair.json");
  (* dice-corpus/1, with and without its embedded repair record *)
  let corpus = file "corpus" in
  let entry =
    Triage.Corpus.add ~dir:corpus ~now:1. signature (Triage.Scenario.Wire "\255")
  in
  let entry_path = Filename.concat corpus (Triage.Corpus.filename_of signature) in
  accepts "corpus entry" entry_path;
  ignore (Triage.Corpus.set_repair ~dir:corpus entry repair_record);
  accepts "corpus entry with repair" entry_path;
  (* The corpus loader checks only the embedded record's tag; the
     checker validates the record itself. *)
  let bogus =
    match repair_record with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) -> if k = "status" then (k, J.String "bogus") else (k, v))
             fields)
    | j -> j
  in
  ignore (Triage.Corpus.set_repair ~dir:corpus entry bogus);
  rejects "corpus entry with a broken repair" entry_path;
  (* dice-confuzz-cov/1 *)
  let arm =
    { Confuzz.Loop.rs_params = Confuzz.Loop.default_params; rs_universe = 3;
      rs_baseline_covered = 1; rs_covered = 2; rs_rounds = []; rs_findings = [];
      rs_uncovered = [] }
  in
  A.write_json ~path:(file "confuzz.json")
    (Confuzz.Report.to_json ~guided:arm ~random:arm ());
  accepts "confuzz report" (file "confuzz.json");
  (* A report from before its registry snapshot was dropped still
     carries a [metrics] member, and stays valid. *)
  Out_channel.with_open_bin (file "confuzz-metrics.json") (fun oc ->
      output_string oc
        "{\"schema\":\"dice-confuzz-cov/1\",\"guided\":{\"budget\":2,\"seed\":1,\
         \"guided\":true,\"universe\":3,\"baseline_covered\":1,\"covered\":2,\
         \"curve\":[2,2],\"kept\":1,\"findings\":0,\"uncovered\":[\"n0/M/e1/act\"]},\
         \"random\":null,\"metrics\":{\"confuzz.cov.n0/M/e1/m0=T\":\
         {\"kind\":\"counter\",\"value\":3}}}\n");
  accepts "confuzz report with a metrics member" (file "confuzz-metrics.json")

let rejects_unknown_and_invalid () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let file name = Filename.concat dir name in
  let write name s =
    Out_channel.with_open_bin (file name) (fun oc -> output_string oc s)
  in
  write "unknown.json" "{\"schema\":\"dice-nope/9\"}\n";
  rejects "unknown schema" (file "unknown.json");
  write "cascade.json" "{\"schema\":\"dice-cascade/1\",\"cascades\":[]}\n";
  rejects "cascade report without source" (file "cascade.json");
  write "headless.jsonl"
    "{\"type\":\"span_end\",\"seq\":0,\"id\":1,\"t_us\":0,\"attrs\":{}}\n";
  rejects "telemetry run without header" (file "headless.jsonl");
  write "torn.json" "{\"schema\":\"dice-repair/1\",\"sta";
  rejects "torn record" (file "torn.json");
  rejects "missing file" (file "absent.json");
  check Alcotest.int "no argument is a usage error" 2 (exit_code []);
  check Alcotest.int "a flag is a usage error" 2
    (exit_code [ "--cascade"; file "cascade.json" ])

let suite =
  [ ( "write_atomic: replace leaves no tmp, readers see old or new",
      `Quick,
      write_atomic_replaces );
    ( "telemetry_check: accepts every schema without flags",
      `Quick,
      dispatches_every_schema );
    ( "telemetry_check: rejects unknown schemas and broken files",
      `Quick,
      rejects_unknown_and_invalid ) ]
