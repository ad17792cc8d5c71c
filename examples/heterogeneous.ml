(* Heterogeneity: a federation in which a third of the ASes run a
   different BGP implementation ("sparrow") than the rest ("bird-like",
   the reference).  DiCE never learns which is which: snapshots,
   clones, exploration inputs and property checks all flow through the
   wire-level speaker interface.

   The scenario seeds a crash bug in a *sparrow* node's community
   handler; DiCE's concolic exploration of that node derives the
   poisonous community and reports the programming error.  Exits 1
   if the crash goes undetected or a fault shows up elsewhere. *)

let () =
  let graph = Topology.Demo27.graph in
  let sparrow_nodes =
    List.filter (fun i -> i mod 3 = 1) (Topology.Graph.node_ids graph)
  in
  let build = Topology.Build.deploy ~sparrow_nodes graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let by_impl =
    List.fold_left
      (fun acc (_, sp) ->
        let impl = sp.Bgp.Speaker.sp_impl in
        let n = Option.value (List.assoc_opt impl acc) ~default:0 in
        (impl, n + 1) :: List.remove_assoc impl acc)
      [] build.Topology.Build.speakers
  in
  Printf.printf "converged mixed deployment: %s; %d routes total\n%!"
    (String.concat ", "
       (List.map (fun (impl, n) -> Printf.sprintf "%d x %s" n impl) by_impl))
    (Topology.Build.total_loc_routes build);

  (* Seed a crash bug in a sparrow transit AS. *)
  let target = 4 in
  assert (List.mem target sparrow_nodes);
  let poison = Bgp.Community.make 64990 99 in
  Dice.Inject.apply build (Dice.Inject.Crash_bug { at = target; community = poison });
  Printf.printf "seeded: community-handler crash in node %d (%s)\n%!" target
    (Topology.Build.speaker build target).Bgp.Speaker.sp_impl;

  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cls = Dice.Fault.Programming_error in
  let summary =
    Dice.Orchestrator.run ~build ~gt ~nodes:[ target ] ~until:cls ~rounds:2 ()
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
      Printf.printf "detected after %d round(s):\n" n;
      List.iter
        (fun (f : Dice.Fault.t) ->
          if String.equal f.Dice.Fault.f_property "handler-crash" then
            Format.printf "  %a@." Dice.Fault.pp f)
        x.Dice.Explorer.x_faults
  | None -> print_endline "NOT DETECTED (unexpected)");

  (* The healthy remainder stays clean: one more full sweep. *)
  let sweep = Dice.Orchestrator.run ~build ~gt ~nodes:[ 0; 1; 2; 3 ] ~rounds:4 () in
  let other_faults =
    List.filter
      (fun (f : Dice.Fault.t) -> f.Dice.Fault.f_node <> target)
      sweep.Dice.Orchestrator.faults
  in
  Printf.printf "sweep over 4 healthy nodes (mixed impls): %d faults elsewhere\n"
    (List.length other_faults);
  if detected = None || other_faults <> [] then exit 1
