(* Federation: the explorer never reads remote state.

   Remote ASes run DiCE's property checks locally and answer with a
   digest — property name, ok/violated, and a hash commitment — never
   their RIBs, policies or the violating route itself.  This example
   prints what actually crosses the domain boundary during a hijack
   detection, next to the full evidence the owning AS keeps. *)

let () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 4 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 3) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = 6; victim = 4 });
  Topology.Build.run_for build (Netsim.Time.span_sec 30.);

  (* Explore from node 1 (a transit AS, administratively separate from
     both the hijacker and the victim). *)
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let x = Dice.Explorer.explore_node ~build ~cut ~gt ~node:1 () in
  let digests = List.concat x.Dice.Explorer.x_digests in

  Printf.printf "explorer node: 1 (AS%d)\n" (Topology.Gao_rexford.asn_of_node 1);
  Printf.printf "digests received from remote domains (%d total):\n"
    (List.length digests);
  let violated, ok_count =
    List.fold_left
      (fun (v, k) d ->
        if (d : Dice.Privacy.digest).Dice.Privacy.d_ok then (v, k + 1) else (d :: v, k))
      ([], 0) digests
  in
  Printf.printf "  %d ok digests (suppressed)\n" ok_count;
  let distinct_violated =
    List.sort_uniq
      (fun (a : Dice.Privacy.digest) b ->
        compare
          (a.Dice.Privacy.d_node, a.Dice.Privacy.d_property)
          (b.Dice.Privacy.d_node, b.Dice.Privacy.d_property))
      violated
  in
  List.iter (fun d -> Format.printf "  %a@." Dice.Privacy.pp_digest d) distinct_violated;
  (* Every digest, in the order they arrived, pinned by one checksum. *)
  Printf.printf "digest stream md5: %s\n"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map (Format.asprintf "%a" Dice.Privacy.pp_digest) digests))));
  let agg = Dice.Privacy.aggregate digests in
  Printf.printf "aggregate: %d digests, %d distinct violations -> system %s\n"
    agg.Dice.Privacy.total
    (List.length (List.sort_uniq compare agg.Dice.Privacy.violations))
    (if Dice.Privacy.all_ok agg then "healthy" else "FAULTY");

  (* What the explorer's own domain sees in full detail: *)
  print_endline "local (own-domain) fault reports, full evidence:";
  List.iter
    (fun (f : Dice.Fault.t) ->
      if f.Dice.Fault.f_node = 1 then Format.printf "  %a@." Dice.Fault.pp f)
    x.Dice.Explorer.x_faults;
  print_endline
    "note: remote violations above carry only \"remote check digest reported a\n\
     violation\" -- the evidence string never left its domain."
