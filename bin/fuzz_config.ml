(* Coverage-guided configuration fuzzer.

   Deploys the embedded gadget topology (12 routers, Gao-Rexford
   policies over a potential dispute wheel), then spends the budget
   injecting seeded operator errors from the confuzz mutation catalog
   — guided by clause coverage of the deployed route maps: mutants
   that light up new policy clauses or surface new fault signatures
   stay in the pool and are mutated further.

   Every finding is a deterministic triage scenario (the mutation list
   is part of it), so it is delta-minimized like a wire repro — the
   mutation list itself is ddmin'd — and filed into a dice-corpus/1
   directory for `dice_triage replay CORPUS_DIR`.  The process exits
   nonzero when it finds anything, so CI can archive the corpus.

   Usage: fuzz_config [BUDGET [SEED [CORPUS_DIR]]] [flags]
   Defaults: budget 150 mutants, seed 1, corpus dir "confuzz-corpus".
   Exit 0 on a clean run, 1 when findings were filed, 124 on a usage
   error. *)

let scenario_of ~seed stack =
  let dr_node =
    match stack with m :: _ -> Confuzz.Mutation.node_of m | [] -> 0
  in
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = Triage.Scenario.Gadget;
      dp_keep = None;
      dp_seed = seed;
      dp_inject = None;
      dp_settle_sec = 5.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz = stack;
      dp_cascade = false;
      dp_mode = Triage.Scenario.Direct { dr_node; dr_peer = 0; dr_input = None } }

let run budget seed corpus_dir report_path compare_random max_stack minimize_tests =
  let graph = Topology.Gadget.embedded () in
  let ctx = Confuzz.Mutation.ctx_of_graph graph in
  let run_mutant stack =
    (Triage.Scenario.run (scenario_of ~seed stack)).Triage.Scenario.o_signatures
  in
  let arm guided =
    Confuzz.Loop.run
      ~params:
        { Confuzz.Loop.p_budget = budget;
          p_seed = seed;
          p_guided = guided;
          p_max_stack = max_stack }
      ~ctx ~run_mutant ()
  in
  let random = if compare_random then Some (arm false) else None in
  let guided = arm true in
  Telemetry.Artifact.write_json ~path:report_path
    (Confuzz.Report.to_json ~guided ?random ());
  Format.printf "%t%!" (fun ppf ->
      Confuzz.Report.pp_summary ppf ~guided ?random ());
  Printf.printf "fuzz_config: wrote coverage report to %s\n%!" report_path;
  match guided.Confuzz.Loop.rs_findings with
  | [] ->
      Printf.printf "fuzz_config: %d mutant(s), no faults found\n" budget;
      0
  | findings ->
      List.iter
        (fun (f : Confuzz.Loop.finding) ->
          let scenario = scenario_of ~seed f.Confuzz.Loop.f_mutations in
          List.iter
            (fun m ->
              Printf.eprintf "fuzz_config: FAULT via %s\n"
                (Confuzz.Mutation.describe m))
            f.Confuzz.Loop.f_mutations;
          match f.Confuzz.Loop.f_signatures with
          | [] -> ()
          | sg :: _ ->
              let r =
                Triage.Minimize.run ~max_tests:minimize_tests ~target:sg
                  scenario
              in
              let entry =
                Triage.Corpus.add ~dir:corpus_dir sg r.Triage.Minimize.r_minimized
              in
              Printf.eprintf
                "  %s\n  minimized size %d -> %d, filed %s (hits %d)\n"
                (Triage.Signature.to_string sg)
                r.Triage.Minimize.r_original_size
                r.Triage.Minimize.r_minimized_size
                (Filename.concat corpus_dir (Triage.Corpus.filename_of sg))
                entry.Triage.Corpus.e_hits)
        findings;
      Printf.eprintf
        "fuzz_config: %d finding(s) filed into %s/ (dice-corpus/1; replay \
         with `dice_triage replay %s`)\n"
        (List.length findings) corpus_dir corpus_dir;
      1

open Cmdliner

(* Each knob is accepted positionally ([BUDGET [SEED [CORPUS_DIR]]]) or
   as a flag; the flag wins when both are given. *)
let knob i kind ~flag ~docv ~doc default =
  let names = [ flag ] in
  let positional = Arg.(value & pos i (some kind) None & info [] ~docv ~doc) in
  let named = Arg.(value & opt (some kind) None & info names ~docv ~doc) in
  let pick p f =
    match (f, p) with Some v, _ | None, Some v -> v | None, None -> default
  in
  Term.(const pick $ positional $ named)

let report_path =
  let doc = "Write the dice-confuzz-cov/1 coverage report to $(docv)." in
  Arg.(value & opt string "confuzz-report.json" & info [ "report" ] ~docv:"FILE" ~doc)

let compare_random =
  let doc =
    "Also run an unguided arm under the same seed and budget, recorded in the report."
  in
  Arg.(value & flag & info [ "compare-random" ] ~doc)

let max_stack =
  let doc = "Mutations per mutant cap." in
  Arg.(
    value
    & opt int Confuzz.Loop.default_params.Confuzz.Loop.p_max_stack
    & info [ "max-stack" ] ~docv:"N" ~doc)

let minimize_tests =
  let doc = "Replay budget when minimizing each finding." in
  Arg.(value & opt int 200 & info [ "minimize-tests" ] ~docv:"N" ~doc)

let cmd =
  let doc = "coverage-guided configuration fuzzer" in
  let exits =
    Cmd.Exit.info 1 ~doc:"when findings were filed into the corpus." :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "fuzz_config" ~doc ~exits)
    Term.(
      const run
      $ knob 0 Arg.int ~flag:"budget" ~docv:"BUDGET" ~doc:"Mutant runs per arm." 150
      $ knob 1 Arg.int ~flag:"seed" ~docv:"SEED" ~doc:"RNG seed." 1
      $ knob 2 Arg.string ~flag:"corpus" ~docv:"CORPUS_DIR"
          ~doc:"Corpus directory for minimized findings." "confuzz-corpus"
      $ report_path $ compare_random $ max_stack $ minimize_tests)

let () = exit (Cmd.eval' cmd)
