(* Policy conflict: Griffin's BAD GADGET.  Three pairwise-peering
   providers of a common customer each prefer the path to the customer
   via the next provider around the wheel.  No stable routing exists;
   the live system oscillates forever.  DiCE detects the conflict by
   exploring a clone of a consistent snapshot and observing that the
   clone never quiesces / revisits earlier routing states. *)

let () =
  let graph = Topology.Gadget.embedded () in
  Printf.printf "deploying gadget topology: %s\n%!" (Topology.Render.summary_line graph);
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  print_endline "live system converged under plain Gao-Rexford policies";

  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build
    (Dice.Inject.Policy_dispute
       { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
  Printf.printf "injected dispute wheel over providers [%s] for %s\n%!"
    (String.concat ";" (List.map string_of_int Topology.Gadget.wheel))
    (Bgp.Prefix.to_string (Topology.Gao_rexford.prefix_of_node Topology.Gadget.victim));
  Topology.Build.run_for build (Netsim.Time.span_sec 5.);

  let cls = Dice.Fault.Policy_conflict in
  let nodes = Topology.Gadget.wheel in
  let summary =
    Dice.Orchestrator.run ~build ~gt ~nodes ~until:cls ~rounds:(2 * List.length nodes) ()
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
      Printf.printf "policy conflict detected after %d round(s):\n" n;
      List.iter
        (fun (f : Dice.Fault.t) ->
          if f.Dice.Fault.f_class = cls then Format.printf "  %a@." Dice.Fault.pp f)
        (List.filteri (fun i _ -> i < 4) x.Dice.Explorer.x_faults)
  | None -> print_endline "NOT DETECTED (unexpected)");

  (* Show that the live system is indeed flapping. *)
  let p = Topology.Gao_rexford.prefix_of_node Topology.Gadget.victim in
  let flips = ref 0 and last = ref (-2) in
  for _ = 1 to 100 do
    Topology.Build.run_for build (Netsim.Time.span_ms 100);
    let sp = Topology.Build.speaker build (List.hd Topology.Gadget.wheel) in
    let via =
      match Bgp.Prefix_trie.find p (Bgp.Speaker.loc_rib sp) with
      | Some route when Bgp.Rib.is_local route -> -1
      | Some route -> Bgp.Router.node_of_addr route.Bgp.Rib.source.Bgp.Rib.peer_addr
      | None -> -3
    in
    if via <> !last then begin
      incr flips;
      last := via
    end
  done;
  Printf.printf "meanwhile the live wheel node changed its selection %d times in 10s\n"
    !flips
