(* Operator mistake on the paper's 27-router topology (Figure 1):
   a stub AS fat-fingers a network statement and originates another
   AS's /24.  DiCE's origin-authenticity property flags the hijack at
   every polluted AS, while remote ASes reveal only check digests. *)

let () =
  let graph = Topology.Demo27.graph in
  Printf.printf "deploying %s\n%!" (Topology.Render.summary_line graph);
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  Printf.printf "live system converged (%d routes, %d sessions)\n%!"
    (Topology.Build.total_loc_routes build)
    (Topology.Build.established_sessions build);

  (* Stub 21 hijacks stub 11's prefix. *)
  let hijacker = 21 and victim = 11 in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = hijacker; victim });
  Printf.printf "injected: node %d now also originates %s\n%!" hijacker
    (Bgp.Prefix.to_string (Topology.Gao_rexford.prefix_of_node victim));
  Topology.Build.run_for build (Netsim.Time.span_sec 30.);

  (* Run DiCE round-robin until the operator mistake surfaces. *)
  let cls = Dice.Fault.Operator_mistake in
  let summary =
    Dice.Orchestrator.run ~build ~gt ~until:cls
      ~rounds:(2 * Topology.Graph.size graph) ()
  in
  (* [first_detection] names the detecting round, the last one run. *)
  let detected =
    Dice.Orchestrator.(
      List.find_opt (fun (c, _, _) -> c = cls) summary.first_detection
      |> Option.map (fun (_, _, n) ->
             (n, Option.get (round_exploration (List.nth summary.rounds (n - 1))))))
  in
  (match detected with
  | Some (n, x) ->
      Printf.printf "detected after %d round(s), exploring node %d:\n" n
        x.Dice.Explorer.x_node;
      List.iter
        (fun (f : Dice.Fault.t) ->
          if f.Dice.Fault.f_class = cls then Format.printf "  %a@." Dice.Fault.pp f)
        x.Dice.Explorer.x_faults
  | None -> print_endline "NOT DETECTED (unexpected)");

  (* How far did the hijack spread in the live system? *)
  let stolen = Topology.Gao_rexford.prefix_of_node victim in
  let polluted =
    List.filter
      (fun (_, sp) ->
        match Bgp.Prefix_trie.find stolen (Bgp.Speaker.loc_rib sp) with
        | Some route ->
            let origin =
              match Bgp.As_path.origin_as route.Bgp.Rib.attrs.Bgp.Attr.as_path with
              | Some a -> a
              | None -> (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn
            in
            origin = Topology.Gao_rexford.asn_of_node hijacker
        | None -> false)
      build.Topology.Build.speakers
  in
  Printf.printf "%d of %d ASes routed the victim prefix to the hijacker\n"
    (List.length polluted) (Topology.Graph.size graph)
