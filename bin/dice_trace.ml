(* Offline cascade analysis: reconstruct the causal propagation graph
   from a dice-telemetry/1 artifact and report self-sustaining failure
   patterns.  Exit status: 0 = clean, 1 = cascade(s) detected, 2 =
   unusable artifact or bad usage — so CI can gate on it directly. *)

let analyze file report_out dot_out min_flips storm_prefixes min_quarantines
    auto_tune =
  match Cascade.Timeline.of_file file with
  | exception Sys_error msg ->
      Printf.eprintf "dice_trace: %s\n" msg;
      2
  | Error msgs ->
      Printf.eprintf "dice_trace: %s is not a valid artifact:\n" file;
      List.iter (fun m -> Printf.eprintf "  %s\n" m) msgs;
      2
  | Ok timeline ->
      let params =
        let base =
          { Cascade.Detect.default_params with
            Cascade.Detect.min_flips;
            storm_prefixes;
            min_quarantines }
        in
        if auto_tune then Cascade.Detect.auto_params ~base timeline else base
      in
      if auto_tune && params.Cascade.Detect.min_flips <> min_flips then
        Printf.printf "auto-tuned min-flips to %d (%d rounds observed)\n"
          params.Cascade.Detect.min_flips timeline.Cascade.Timeline.tl_rounds;
      let propagation, cascades = Cascade.Detect.run ~params timeline in
      Printf.printf
        "%s: %d record(s) over %.1fs sim time — %d round(s), %d fault(s), \
         %d sys event(s), %d loc-rib flip(s)\n"
        file timeline.Cascade.Timeline.tl_records
        (float_of_int (Cascade.Timeline.duration_us timeline) /. 1e6)
        timeline.Cascade.Timeline.tl_rounds
        (List.length timeline.Cascade.Timeline.tl_faults)
        (List.length timeline.Cascade.Timeline.tl_sys)
        (List.length timeline.Cascade.Timeline.tl_flips);
      Printf.printf "propagation graph: %d state(s), %d edge(s), %d cycle(s)\n"
        (Cascade.Graph.vertex_count propagation)
        (Cascade.Graph.edge_count propagation)
        (List.length (Cascade.Graph.sccs propagation));
      (match report_out with
      | None -> ()
      | Some path ->
          Telemetry.Artifact.write_json ~path
            (Cascade.Report.to_json ~timeline ~propagation cascades);
          Printf.printf "wrote %s report to %s\n" Cascade.Report.version path);
      (match dot_out with
      | None -> ()
      | Some path ->
          Cascade.Report.write_dot ~path propagation;
          Printf.printf "wrote propagation graph to %s\n" path);
      (match cascades with
      | [] ->
          print_endline "no cascades detected.";
          0
      | cs ->
          Printf.printf "%d cascade(s) detected:\n" (List.length cs);
          List.iter (fun c -> Format.printf "  %a@." Cascade.Detect.pp c) cs;
          1)

open Cmdliner

let file =
  let doc = "The dice-telemetry/1 JSONL artifact to analyze." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let report_out =
  let doc = "Write the dice-cascade/1 JSON report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"OUT.json" ~doc)

let dot_out =
  let doc = "Write a Graphviz rendering of the propagation graph to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT.dot" ~doc)

let min_flips =
  let doc =
    "Minimum loc-rib changes in one (node, prefix) series before it can \
     count as oscillating (the series must also close a cycle in the \
     propagation graph)."
  in
  Arg.(
    value
    & opt int Cascade.Detect.default_params.Cascade.Detect.min_flips
    & info [ "min-flips" ] ~docv:"N" ~doc)

let storm_prefixes =
  let doc = "Distinct oscillating prefixes that aggregate into one flap storm." in
  Arg.(
    value
    & opt int Cascade.Detect.default_params.Cascade.Detect.storm_prefixes
    & info [ "storm-prefixes" ] ~docv:"N" ~doc)

let min_quarantines =
  let doc = "Quarantines of one node before ping-pong is considered." in
  Arg.(
    value
    & opt int Cascade.Detect.default_params.Cascade.Detect.min_quarantines
    & info [ "min-quarantines" ] ~docv:"N" ~doc)

let auto_tune =
  let doc =
    "Auto-tune --min-flips to the artifact's observed round cadence \
     (max(--min-flips, rounds/2)): long campaign timelines demand \
     proportionally more flip evidence, while --min-flips stays the \
     hard floor."
  in
  Arg.(value & flag & info [ "auto-min-flips" ] ~doc)

let analyze_cmd =
  let doc = "detect cascades in a telemetry artifact" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Reconstructs the per-round span forest and the causal \
         fault-propagation graph from a dice-telemetry/1 artifact: fault \
         records linked by signature recurrence across rounds, by \
         fault-to-churn/quarantine induction, and by per-prefix loc-rib \
         flip-flops.  Cycles in the state graph (strongly connected \
         components), gated by the per-prefix flap spectrum, classify \
         route oscillations, flap storms and quarantine ping-pong.";
      `S Manpage.s_exit_status;
      `P "0 on a clean timeline, 1 when cascades were detected, 2 when the \
          artifact could not be read." ]
  in
  Cmd.v
    (Cmd.info "analyze" ~doc ~man)
    Term.(
      const analyze $ file $ report_out $ dot_out $ min_flips $ storm_prefixes
      $ min_quarantines $ auto_tune)

let cmd =
  let doc = "causal cascade analysis over DiCE telemetry" in
  Cmd.group (Cmd.info "dice_trace" ~version:"1.0.0" ~doc) [ analyze_cmd ]

let () = exit (Cmd.eval' cmd)
