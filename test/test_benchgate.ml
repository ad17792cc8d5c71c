(* The CI regression gate must actually fail on a regression: these
   tests feed synthetic BENCH.json documents through Benchgate.Gate and
   check each direction, the margins, and the missing-metric rule. *)

module Json = Telemetry.Json
open Benchgate

let doc ~decode ~shadows ?(extra = []) () =
  Json.Obj
    ([ ( "micro_ns_per_op",
         Json.Obj [ ("dice/wire/decode-update", Json.Float decode) ] );
       ( "scale",
         Json.Obj
           [ ( "lite",
               Json.Obj [ ("shadows_per_s", Json.Float shadows) ] ) ] ) ]
    @ extra)

let baseline = doc ~decode:800. ~shadows:3. ()

let verdicts fresh = Gate.check ~baseline ~fresh

let find metric vs =
  match List.find_opt (fun v -> v.Gate.metric = metric) vs with
  | Some v -> v
  | None -> Alcotest.failf "no verdict for %s" metric

let gate_passes_identical_run () =
  let vs = verdicts baseline in
  Alcotest.(check int) "both families gated" 2 (List.length vs);
  Alcotest.(check bool) "identical run passes" true (Gate.all_ok vs)

let gate_passes_within_margin () =
  (* 2.0x with 50ns slack on micro; shadows may sag to base/1.6 - 0.5. *)
  let vs = verdicts (doc ~decode:1200. ~shadows:1.5 ()) in
  Alcotest.(check bool) "noise-sized drift passes" true (Gate.all_ok vs)

let gate_fails_slower_micro () =
  let vs = verdicts (doc ~decode:2500. ~shadows:3. ()) in
  Alcotest.(check bool) "regressed decode fails" false
    (find "micro_ns_per_op.dice/wire/decode-update" vs).Gate.ok;
  Alcotest.(check bool) "throughput still ok" true
    (find "scale.lite.shadows_per_s" vs).Gate.ok;
  Alcotest.(check bool) "all_ok reports the failure" false (Gate.all_ok vs)

let gate_fails_lower_throughput () =
  (* Higher-is-better: limit is 3/1.6 - 0.5 = 1.375. *)
  let vs = verdicts (doc ~decode:800. ~shadows:1.0 ()) in
  Alcotest.(check bool) "collapsed shadows/s fails" false
    (find "scale.lite.shadows_per_s" vs).Gate.ok

let gate_fails_missing_metric () =
  let fresh =
    Json.Obj
      [ ("micro_ns_per_op",
         Json.Obj [ ("dice/wire/decode-update", Json.Float 800.) ]) ]
  in
  let v = find "scale.lite.shadows_per_s" (verdicts fresh) in
  Alcotest.(check bool) "gated metric absent from fresh run fails" false v.Gate.ok;
  Alcotest.(check bool) "reported as missing" true (v.Gate.fresh = None)

let gate_ignores_fresh_only_metrics () =
  let fresh =
    doc ~decode:800. ~shadows:3.
      ~extra:
        [ ( "micro_minor_words_per_op",
            Json.Obj [ ("dice/wire/decode-update", Json.Float 1e9) ] ) ]
      ()
  in
  (* A metric with no baseline cannot regress; it starts gating once
     the baseline is refreshed to include it. *)
  let vs = verdicts fresh in
  Alcotest.(check int) "only baseline metrics gated" 2 (List.length vs);
  Alcotest.(check bool) "fresh-only metric ignored" true (Gate.all_ok vs)

let gate_ungated_names_pass_through () =
  let baseline =
    Json.Obj
      [ ( "scale",
          Json.Obj [ ("lite", Json.Obj [ ("routes", Json.Int 62_500) ]) ] ) ]
  in
  let fresh =
    Json.Obj
      [ ("scale", Json.Obj [ ("lite", Json.Obj [ ("routes", Json.Int 10) ]) ]) ]
  in
  Alcotest.(check int) "descriptive fields have no rule" 0
    (List.length (Gate.check ~baseline ~fresh))

(* Time to first detection: the deterministic fields gate exactly, so a
   later or missed detection fails; wall time rides the deploy margin. *)
let gate_detection_family () =
  let row ?(detected = true) ?(rounds = 3) ?(latency = Some 20_439_702) wall =
    Json.Obj
      [ ( "detection",
          Json.Obj
            [ ( "loop-check-9",
                Json.Obj
                  [ ("detected", Json.Bool detected);
                    ("rounds", Json.Int rounds);
                    ("inputs", Json.Int (48 * rounds));
                    ( "sim_latency_us",
                      match latency with Some l -> Json.Int l | None -> Json.Null );
                    ("wall_s", Json.Float wall) ] ) ] ) ]
  in
  let baseline = row 0.06 in
  let check_run name fresh ok_expected failing =
    let vs = Gate.check ~baseline ~fresh in
    Alcotest.(check int) (name ^ ": every field gated") 5 (List.length vs);
    Alcotest.(check (list string)) (name ^ ": failing metrics") failing
      (List.filter_map (fun v -> if v.Gate.ok then None else Some v.Gate.metric) vs);
    Alcotest.(check bool) (name ^ ": all_ok") ok_expected (Gate.all_ok vs)
  in
  check_run "identical" baseline true [];
  check_run "slower wall within margin" (row 1.1) true [];
  check_run "wall past 2x + 1s" (row 1.2) false [ "detection.loop-check-9.wall_s" ];
  check_run "one round later" (row ~rounds:4 ~latency:(Some 25_439_702) 0.06) false
    [ "detection.loop-check-9.rounds"; "detection.loop-check-9.inputs";
      "detection.loop-check-9.sim_latency_us" ];
  check_run "missed" (row ~detected:false ~rounds:6 ~latency:None 0.06) false
    [ "detection.loop-check-9.detected"; "detection.loop-check-9.rounds";
      "detection.loop-check-9.inputs"; "detection.loop-check-9.sim_latency_us" ]

let suite =
  [ ("gate: identical run passes", `Quick, gate_passes_identical_run);
    ("gate: drift within margin passes", `Quick, gate_passes_within_margin);
    ("gate: slower micro fails", `Quick, gate_fails_slower_micro);
    ("gate: lower throughput fails", `Quick, gate_fails_lower_throughput);
    ("gate: missing gated metric fails", `Quick, gate_fails_missing_metric);
    ("gate: fresh-only metrics ignored", `Quick, gate_ignores_fresh_only_metrics);
    ("gate: descriptive fields ungated", `Quick, gate_ungated_names_pass_through);
    ("gate: time to first detection", `Quick, gate_detection_family) ]
