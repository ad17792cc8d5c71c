(* The fuzzers' command lines, run as CI and the docs run them: the
   built binaries (declared in the test's deps) with the positional and
   the flag forms of their three knobs. *)

let check = Alcotest.check
let run = Test_demo.run_exe

let wire_positional () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let code, out, err = run "fuzz_wire" dir [ "50"; "1"; Filename.concat dir "corpus" ] in
  check Alcotest.int ("exit 0 (stderr: " ^ err ^ ")") 0 code;
  check Alcotest.bool "50 cases per corpus" true
    (Test_demo.contains out "50 raw + 50 mangled cases")

let config_forms_agree () =
  Test_campaign.with_temp_dir @@ fun dir ->
  let file name = Filename.concat dir name in
  let code, _, err =
    run "fuzz_config" dir [ "2"; "1"; file "c1"; "--report"; file "r1.json" ]
  in
  check Alcotest.int ("positional form exits 0 (stderr: " ^ err ^ ")") 0 code;
  let code, _, err =
    run "fuzz_config" dir
      [ "--budget"; "2"; "--seed"; "1"; "--corpus"; file "c2";
        "--report"; file "r2.json" ]
  in
  check Alcotest.int ("flag form exits 0 (stderr: " ^ err ^ ")") 0 code;
  check Alcotest.string "byte-identical reports"
    (Test_campaign.read_file (file "r1.json"))
    (Test_campaign.read_file (file "r2.json"));
  let code, _, _ = run "telemetry_check" dir [ file "r1.json" ] in
  check Alcotest.int "telemetry_check accepts the report" 0 code

let unknown_flag_is_usage_error () =
  Test_campaign.with_temp_dir @@ fun dir ->
  List.iter
    (fun name ->
      let code, out, _ = run name dir [ "--no-such-flag" ] in
      check Alcotest.int (name ^ ": cmdliner's usage-error exit") 124 code;
      check Alcotest.string (name ^ ": nothing run") "" out)
    [ "fuzz_wire"; "fuzz_config" ]

let suite =
  [ ("fuzz_wire: CASES SEED DIR runs clean", `Quick, wire_positional);
    ("fuzz_config: positional and flag forms write the same report", `Quick,
     config_forms_agree);
    ("fuzzers: an unknown flag is a usage error", `Quick, unknown_flag_is_usage_error) ]
