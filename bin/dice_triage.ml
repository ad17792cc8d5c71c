(* Fault-triage CLI over the persistent regression corpus.

   dice_triage triage FILE   -- replay a scenario (JSON, or raw wire
                                bytes), minimize each detected
                                signature, file it into the corpus
   dice_triage replay DIR    -- re-run every corpus entry; nonzero exit
                                on vanished / erroring signatures
                                (--strict also fails on signatures that
                                appear but are not in the corpus)
   dice_triage list DIR      -- one line per entry
   dice_triage gc DIR        -- drop entries that no longer replay
   dice_triage repair ENTRY  -- localize + symbolize + solve a config
                                patch for the entry's fault; store the
                                dice-repair/1 record in the entry *)

let load_scenario path =
  let contents = Telemetry.Artifact.read_file path in
  match Triage.Scenario.of_string contents with
  | Ok s -> s
  | Error _ ->
      (* Not a scenario document: treat the raw bytes as a wire case,
         so the codec fuzzer's failing buffers triage directly. *)
      Triage.Scenario.Wire contents

(* --- triage -------------------------------------------------------- *)

let triage_cmd file corpus_dir max_tests no_minimize =
  let scenario = load_scenario file in
  let outcome = Triage.Scenario.run scenario in
  (match outcome.Triage.Scenario.o_error with
  | Some e ->
      Printf.eprintf "triage: scenario failed to replay: %s\n" e;
      exit 2
  | None -> ());
  match outcome.Triage.Scenario.o_signatures with
  | [] ->
      print_endline "triage: no fault detected; nothing to file.";
      0
  | sgs ->
      let distinct =
        List.sort_uniq
          (fun a b -> Triage.Signature.compare a b)
          sgs
      in
      Printf.printf "triage: %d distinct signature(s) detected\n%!"
        (List.length distinct);
      List.iter
        (fun sg ->
          let repro =
            if no_minimize then scenario
            else begin
              let r = Triage.Minimize.run ~max_tests ~target:sg scenario in
              Format.printf "%a@." Triage.Minimize.pp_result r;
              r.Triage.Minimize.r_minimized
            end
          in
          let entry = Triage.Corpus.add ~dir:corpus_dir sg repro in
          Printf.printf "filed %s -> %s (hits %d, size %d)\n%!"
            (Triage.Signature.to_string sg)
            (Filename.concat corpus_dir (Triage.Corpus.filename_of sg))
            entry.Triage.Corpus.e_hits
            (Triage.Scenario.size entry.Triage.Corpus.e_scenario))
        distinct;
      0

(* --- replay -------------------------------------------------------- *)

let replay_cmd dir strict =
  let entries = Triage.Corpus.load ~dir in
  if entries = [] then begin
    Printf.eprintf "replay: no corpus entries under %s\n" dir;
    1
  end
  else begin
    let known =
      List.filter_map
        (function
          | _, Ok e -> Some (Triage.Signature.to_string e.Triage.Corpus.e_signature)
          | _, Error _ -> None)
        entries
    in
    let failures = ref 0 in
    (* new signature -> the corpus entries whose replay introduced it,
       so a strict failure names the culprit, not just the symptom *)
    let appeared : (string * string list) list ref = ref [] in
    List.iter
      (fun (path, r) ->
        match r with
        | Error e ->
            incr failures;
            Printf.printf "INVALID  %s: %s\n%!" path e
        | Ok entry -> (
            let verdict = Triage.Corpus.replay entry in
            (match verdict with
            | Triage.Corpus.Confirmed _ -> ()
            | _ -> incr failures);
            Format.printf "%-9s %s@."
              (match verdict with
              | Triage.Corpus.Confirmed _ -> "CONFIRMED"
              | Triage.Corpus.Vanished _ -> "VANISHED"
              | Triage.Corpus.Replay_error _ -> "ERROR")
              (Triage.Signature.to_string entry.Triage.Corpus.e_signature);
            let note_appeared extra =
              let intro = Filename.basename path in
              List.iter
                (fun sg ->
                  let s = Triage.Signature.to_string sg in
                  if not (List.mem s known) then
                    let prev =
                      Option.value ~default:[] (List.assoc_opt s !appeared)
                    in
                    appeared :=
                      (s, intro :: prev) :: List.remove_assoc s !appeared)
                extra
            in
            match verdict with
            | Triage.Corpus.Confirmed extra | Triage.Corpus.Vanished extra ->
                note_appeared extra
            | Triage.Corpus.Replay_error e -> Printf.printf "          %s\n%!" e))
      entries;
    let appeared =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !appeared
    in
    if strict && appeared <> [] then begin
      List.iter
        (fun (s, intros) ->
          Printf.printf "APPEARED  %s (not in corpus; introduced by %s)\n%!" s
            (String.concat ", " (List.sort_uniq String.compare intros)))
        appeared;
      failures := !failures + List.length appeared
    end;
    Printf.printf "replay: %d entr%s, %d failure(s)\n%!" (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      !failures;
    if !failures > 0 then 1 else 0
  end

(* --- list ----------------------------------------------------------- *)

let list_cmd dir =
  let entries = Triage.Corpus.load ~dir in
  if entries = [] then print_endline "corpus is empty."
  else
    List.iter
      (fun (path, r) ->
        match r with
        | Error e -> Printf.printf "%-40s INVALID: %s\n" (Filename.basename path) e
        | Ok e ->
            Printf.printf "%-40s %s  hits=%d size=%d repair=%s\n"
              (Filename.basename path)
              (Triage.Signature.to_string e.Triage.Corpus.e_signature)
              e.Triage.Corpus.e_hits
              (Triage.Scenario.size e.Triage.Corpus.e_scenario)
              (Triage.Corpus.repair_status_name (Triage.Corpus.repair_status e)))
      entries;
  0

(* --- gc ------------------------------------------------------------- *)

let gc_cmd dir =
  match Triage.Corpus.gc ~dir with
  | [] ->
      print_endline "gc: corpus clean, nothing removed.";
      0
  | removed ->
      List.iter (fun (path, reason) -> Printf.printf "removed %s: %s\n" path reason)
        removed;
      Printf.printf "gc: removed %d entr%s\n" (List.length removed)
        (if List.length removed = 1 then "y" else "ies");
      0

(* --- repair ---------------------------------------------------------- *)

(* Uncovered clause-coverage point ids from a dice-confuzz-cov/1
   report (both arms), or from a bare JSON list of id strings. *)
let load_uncovered path =
  let module J = Telemetry.Json in
  let strings = function
    | J.List l ->
        List.filter_map (function J.String s -> Some s | _ -> None) l
    | _ -> []
  in
  Telemetry.Artifact.read_json path
  |> Result.map (function
       | J.List _ as l -> strings l
       | doc ->
           let arm name =
             match J.member name doc with
             | Some arm -> (
                 match J.member "uncovered" arm with
                 | Some l -> strings l
                 | None -> [])
             | None -> []
           in
           List.sort_uniq String.compare (arm "guided" @ arm "random"))

let repair_cmd entry_path all max_candidates uncovered emit =
  match
    Result.bind (Telemetry.Artifact.read_json entry_path) Triage.Corpus.validate
  with
  | Error e ->
      Printf.eprintf "repair: %s: not a corpus entry: %s\n" entry_path e;
      2
  | Ok entry -> (
      let negative =
        match uncovered with
        | None -> []
        | Some path -> (
            match load_uncovered path with
            | Ok ids -> ids
            | Error e ->
                Printf.eprintf "repair: bad coverage report: %s\n" e;
                exit 2)
      in
      let target = entry.Triage.Corpus.e_signature in
      Printf.printf "repair: %s\n%!" (Triage.Signature.to_string target);
      match
        Repair.Search.run ~negative ~all ~max_candidates ~target
          entry.Triage.Corpus.e_scenario
      with
      | Error e ->
          Printf.eprintf "repair: %s\n" e;
          2
      | Ok outcome ->
          let record = Repair.Report.of_outcome outcome in
          let entry' =
            Triage.Corpus.set_repair
              ~dir:(Filename.dirname entry_path)
              entry record
          in
          ignore entry';
          Option.iter (fun path -> Telemetry.Artifact.write_json ~path record) emit;
          Format.printf "%a@." Repair.Report.pp_summary record;
          (match outcome.Repair.Search.re_verified with
          | Some c ->
              Printf.printf "verified patch: %s\n%!"
                (Repair.Patch.describe c.Repair.Search.ca_patch);
              0
          | None -> 1))

(* --- cmdliner wiring ------------------------------------------------ *)

open Cmdliner

let dir_arg =
  let doc = "Corpus directory (one dice-corpus/1 JSON file per signature)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let triage_term =
  let file =
    let doc = "Scenario to triage: a scenario JSON document, or raw bytes (treated as a wire-decode case)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let corpus =
    let doc = "Corpus directory to file detections into." in
    Arg.(value & opt string "dice-corpus" & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let max_tests =
    let doc = "Replay budget for the minimizer." in
    Arg.(value & opt int Triage.Minimize.default_max_tests
         & info [ "max-tests" ] ~docv:"N" ~doc)
  in
  let no_minimize =
    let doc = "File the scenario as-is without delta-debugging it." in
    Arg.(value & flag & info [ "no-minimize" ] ~doc)
  in
  Cmd.v
    (Cmd.info "triage" ~doc:"replay a scenario, minimize and file its detections")
    Term.(const triage_cmd $ file $ corpus $ max_tests $ no_minimize)

let replay_term =
  let strict =
    let doc =
      "Also fail when a replay detects a signature that is not in the \
       corpus (regression corpora must neither lose nor grow \
       signatures silently)."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"re-run every corpus entry and verify its signature")
    Term.(const replay_cmd $ dir_arg $ strict)

let list_term =
  Cmd.v (Cmd.info "list" ~doc:"print every corpus entry")
    Term.(const list_cmd $ dir_arg)

let gc_term =
  Cmd.v
    (Cmd.info "gc" ~doc:"drop invalid entries and entries that no longer replay")
    Term.(const gc_cmd $ dir_arg)

let repair_term =
  let entry =
    let doc = "Corpus entry file (dice-corpus/1 JSON) to repair." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ENTRY" ~doc)
  in
  let all =
    let doc = "Keep searching after the first verified patch." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let max_candidates =
    let doc = "Cap on solver-produced candidate patches." in
    Arg.(value & opt int 8 & info [ "max-candidates" ] ~docv:"N" ~doc)
  in
  let uncovered =
    let doc =
      "Coverage report (dice-confuzz-cov/1, or a JSON list of point \
       ids) whose uncovered clause ids are negative localization \
       evidence."
    in
    Arg.(value & opt (some file) None & info [ "uncovered" ] ~docv:"REPORT" ~doc)
  in
  let emit =
    let doc = "Also write the dice-repair/1 record to this file." in
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "diagnose the entry's fault and search for a verified config \
          patch (exit 0 when a patch verifies, 1 otherwise)")
    Term.(
      const repair_cmd $ entry $ all $ max_candidates $ uncovered $ emit)

let cmd =
  let doc = "fault triage: minimize, file and replay DiCE fault repros" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Works over a persistent regression corpus: a directory of \
         dice-corpus/1 JSON entries, one per stable fault signature, each \
         holding a delta-debugged minimal scenario that deterministically \
         reproduces the signature.";
      `S Manpage.s_examples;
      `Pre "  dice_triage triage repro.json --corpus dice-corpus";
      `Pre "  dice_triage triage fuzz-corpus/fail-000.bin";
      `Pre "  dice_triage replay examples/corpus --strict";
      `Pre "  dice_triage list dice-corpus";
      `Pre "  dice_triage gc dice-corpus";
      `Pre "  dice_triage repair dice-corpus/<entry>.json --emit repair.json" ]
  in
  Cmd.group
    (Cmd.info "dice_triage" ~version:"1.0.0" ~doc ~man)
    [ triage_term; replay_term; list_term; gc_term; repair_term ]

let () = exit (Cmd.eval' cmd)
