(* The deterministic oscillation gadget: Griffin's bare BAD GADGET
   (4 nodes) with a local-pref dispute wheel injected over the three
   providers.  The live system genuinely never converges — every wheel
   member keeps revisiting routes it already abandoned — and the
   cascade analyzer proves it from the telemetry alone: the loc-rib
   flip states close a cycle in the propagation graph and the flap
   spectrum shows a steady beat.

   Run with --no-dispute for the control arm: the same gadget under
   plain Gao-Rexford policies converges, and the analyzer must find
   nothing (the false-positive bound the test suite pins). *)

let () =
  let dispute = not (Array.exists (String.equal "--no-dispute") Sys.argv) in
  let artifact =
    let named = ref None in
    Array.iteri
      (fun i a -> if i > 0 && String.length a > 0 && a.[0] <> '-' then named := Some a)
      Sys.argv;
    match !named with
    | Some p -> p
    | None ->
        (* No file named: the artifact is scratch, gone when we exit. *)
        let p = Filename.temp_file "oscillation" ".jsonl" in
        at_exit (fun () -> if Sys.file_exists p then Sys.remove p);
        p
  in
  let graph = Topology.Gadget.bad_gadget () in
  Printf.printf "deploying %s\n%!" (Topology.Render.summary_line graph);
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  if dispute then begin
    Dice.Inject.apply build
      (Dice.Inject.Policy_dispute
         { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
    Printf.printf "injected dispute wheel over providers [%s] for %s\n%!"
      (String.concat ";" (List.map string_of_int Topology.Gadget.wheel))
      (Bgp.Prefix.to_string
         (Topology.Gao_rexford.prefix_of_node Topology.Gadget.victim))
  end
  else print_endline "control arm: no dispute injected";

  (* Record the run: sim-time clock, JSONL artifact, a short supervised
     exploration so the artifact carries round spans alongside the live
     system's loc-rib trace records. *)
  Telemetry.set_clock (fun () ->
      Netsim.Time.to_us (Netsim.Engine.now build.Topology.Build.engine));
  let _summary =
    Telemetry.with_jsonl artifact
      ~attrs:[ ("example", Telemetry.Json.String "oscillation") ]
      (fun () ->
        Topology.Build.run_for build (Netsim.Time.span_sec 5.);
        Dice.Orchestrator.run ~nodes:Topology.Gadget.wheel ~build ~gt ~rounds:4 ())
  in
  Printf.printf "wrote telemetry to %s\n%!" artifact;

  match Cascade.Timeline.of_file artifact with
  | Error msgs ->
      List.iter prerr_endline msgs;
      exit 2
  | Ok timeline ->
      let propagation, cascades = Cascade.Detect.run timeline in
      Printf.printf
        "timeline: %d record(s), %d loc-rib flip(s); graph: %d state(s), %d \
         edge(s), %d cycle(s)\n"
        timeline.Cascade.Timeline.tl_records
        (List.length timeline.Cascade.Timeline.tl_flips)
        (Cascade.Graph.vertex_count propagation)
        (Cascade.Graph.edge_count propagation)
        (List.length (Cascade.Graph.sccs propagation));
      List.iter (fun c -> Format.printf "  %a@." Cascade.Detect.pp c) cascades;
      if dispute then begin
        assert (
          List.exists
            (fun c -> c.Cascade.Detect.c_kind = Cascade.Detect.Route_oscillation)
            cascades);
        print_endline "route oscillation detected, as expected"
      end
      else begin
        assert (cascades = []);
        print_endline "no cascades, as expected"
      end
