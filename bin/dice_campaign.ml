(* Campaign driver CLI: run a declarative dice-campaign/1 spec under
   the supervising scheduler, or resume a killed run from its journal.
   Exit status: 0 = campaign completed with the cascade health gate
   clean, 1 = health gate failed (a self-sustaining failure was
   observed), 2 = bad usage / unreadable spec / corrupt journal — so
   CI can gate on the exit code directly. *)

let fail msg =
  Printf.eprintf "dice_campaign: %s\n" msg;
  2

let run_cmd spec_path dir crash_after verbose =
  let log = if verbose then prerr_endline else ignore in
  match Campaign.Spec.load spec_path with
  | Error e -> fail e
  | Ok spec -> (
      Campaign.Run.print_start ~dir spec;
      match Campaign.Run.start ?crash_after ~log ~dir spec with
      | Error e -> fail e
      | Ok r -> Campaign.Run.print_result ~dir r)

let resume_cmd dir crash_after verbose =
  let log = if verbose then prerr_endline else ignore in
  match Campaign.Run.resume ?crash_after ~log ~dir () with
  | Error e -> fail e
  | Ok r -> Campaign.Run.print_result ~dir r

let check_cmd spec_path =
  match Campaign.Spec.load spec_path with
  | Error e -> fail e
  | Ok spec ->
      Printf.printf "%s: OK — campaign %S, %d template(s), %d job(s)\n"
        spec_path spec.Campaign.Spec.c_name
        (List.length spec.Campaign.Spec.c_templates)
        (List.length (Campaign.Spec.jobs spec));
      List.iter
        (fun (t : Campaign.Spec.template) ->
          Printf.printf "  %s: %d seed(s), scenario size %d\n"
            t.Campaign.Spec.t_name
            (List.length t.Campaign.Spec.t_seeds)
            (Triage.Scenario.size t.Campaign.Spec.t_scenario))
        spec.Campaign.Spec.c_templates;
      0

open Cmdliner

let dir_arg =
  let doc = "The campaign directory (journal, report, corpus)." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc)

let spec_arg p =
  let doc = "The dice-campaign/1 spec file." in
  Arg.(required & pos p (some string) None & info [] ~docv:"SPEC" ~doc)

let crash_after =
  let doc =
    "Testing hook: simulate a kill -9 (immediate _exit 137, no cleanup) \
     right after the $(docv)-th live final verdict reaches the journal."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after" ] ~docv:"N" ~doc)

let verbose =
  let doc = "Log per-job progress to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let run_c =
  let doc = "run a campaign spec into a fresh directory" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run_cmd $ spec_arg 0 $ dir_arg $ crash_after $ verbose)

let resume_c =
  let doc = "resume a campaign from its journal after a crash" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Replays $(i,DIR)/journal.jsonl — verifying the spec digest and \
         every checkpoint — feeds completed verdicts back into the \
         deterministic scheduler without re-executing them, and continues \
         the sweep.  A campaign killed with kill -9 and resumed produces a \
         byte-identical report.json and the same filed corpus as an \
         uninterrupted run." ]
  in
  let dir =
    let doc = "The campaign directory to resume." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  Cmd.v (Cmd.info "resume" ~doc ~man)
    Term.(const resume_cmd $ dir $ crash_after $ verbose)

let check_c =
  let doc = "validate a campaign spec and print its expansion" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check_cmd $ spec_arg 0)

let cmd =
  let doc = "supervised scenario campaigns over the DiCE triage engine" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Expands a declarative campaign spec (scenario templates × seed \
         sweeps) into jobs and drives them under supervision: per-scenario \
         watchdog, exception absorption, retry with backoff for flaky \
         verdicts, exponential-backoff quarantine for templates that keep \
         failing, campaign-wide signature dedupe before corpus filing, and \
         a per-job online cascade monitor whose findings gate the exit \
         code.  Every state transition is journaled (fsync'd JSONL) so \
         $(b,resume) continues deterministically after a crash.";
      `S Manpage.s_exit_status;
      `P "0 when the campaign completed and the health gate is clean, 1 \
          when a self-sustaining failure was observed, 2 on bad usage, an \
          invalid spec or a corrupt journal." ]
  in
  Cmd.group (Cmd.info "dice_campaign" ~version:"1.0.0" ~doc ~man)
    [ run_c; resume_c; check_c ]

let () = exit (Cmd.eval' cmd)
