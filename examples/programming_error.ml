(* Programming errors: DiCE's concolic exploration derives the exact
   inputs that reach seeded bugs in the message-handling code —
   without being told what the bugs are.

   Bug 1: the community handler crashes on a particular community
          (a memory-corruption stand-in).
   Bug 2: the MED comparison is inverted, silently selecting the wrong
          exit; caught by checking selections against a reference run
          of the decision process. *)

(* Explore [nodes] until a programming error shows up; [first_detection]
   names the detecting round, the last one run. *)
let detecting_round ~nodes ~build ~gt =
  let cls = Dice.Fault.Programming_error in
  Dice.Orchestrator.(
    let summary = run ~build ~gt ~nodes ~until:cls ~rounds:(2 * List.length nodes) () in
    List.find_opt (fun (c, _, _) -> c = cls) summary.first_detection
    |> Option.map (fun (_, _, n) ->
           Option.get (round_exploration (List.nth summary.rounds (n - 1)))))

let () =
  (* --- Bug 1: crash on a "poisoned" community --- *)
  let params =
    { Topology.Generate.default_params with n_tier1 = 2; n_transit = 3; n_stub = 4 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 21) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let poison = Bgp.Community.make 64999 13 in
  Dice.Inject.apply build (Dice.Inject.Crash_bug { at = 2; community = poison });
  (match detecting_round ~nodes:[ 2 ] ~build ~gt with
  | Some x ->
      print_endline "crash bug found by concolic exploration:";
      List.iter
        (fun (f : Dice.Fault.t) ->
          if String.equal f.Dice.Fault.f_property "handler-crash" then
            Format.printf "  %a@." Dice.Fault.pp f)
        x.Dice.Explorer.x_faults
  | None -> print_endline "crash bug NOT found (unexpected)");

  (* --- Bug 2: inverted MED comparison --- *)
  (* MED only discriminates when the routes are comparable: the victim
     router multihomes to equal-preference providers and its operator
     enabled always-compare-med. *)
  let graph2 = Topology.Gadget.bad_gadget () in
  let build2 = Topology.Build.deploy graph2 in
  Topology.Build.start_all build2;
  assert (Topology.Build.converge build2);
  let gt2 = Dice.Checks.ground_truth_of_graph graph2 in
  let victim = Topology.Gadget.victim in
  let sp0 = Topology.Build.speaker build2 victim in
  sp0.Bgp.Speaker.sp_set_config
    { (sp0.Bgp.Speaker.sp_config ()) with Bgp.Config.always_compare_med = true };
  Dice.Inject.apply build2 (Dice.Inject.Inverted_med_bug { at = victim });
  (* Two providers advertise the same external prefix with different
     MEDs: the spec says pick MED 10, the buggy code picks MED 500. *)
  let prefix = Bgp.Prefix.of_string_exn "198.51.100.0/24" in
  let cfg0 = sp0.Bgp.Speaker.sp_config () in
  (match cfg0.Bgp.Config.neighbors with
  | (p1 : Bgp.Config.neighbor) :: (p2 : Bgp.Config.neighbor) :: _ ->
      let announce (peer : Bgp.Config.neighbor) med =
        sp0.Bgp.Speaker.sp_inject_update ~from:peer.Bgp.Config.addr
          { Bgp.Msg.withdrawn = [];
            attrs =
              Some
                (Bgp.Attr.make ~origin:Bgp.Attr.Igp
                   ~as_path:[ Bgp.As_path.Seq [ peer.Bgp.Config.remote_as; 65400 ] ]
                   ~med:(Some med) ~next_hop:peer.Bgp.Config.addr ());
            nlri = [ prefix ] }
      in
      announce p1 10;
      announce p2 500
  | _ -> assert false);
  Topology.Build.run_for build2 (Netsim.Time.span_sec 5.);
  (match detecting_round ~nodes:[ victim ] ~build:build2 ~gt:gt2 with
  | Some x ->
      print_endline "inverted-MED bug found via the decision-process-spec property:";
      List.iter
        (fun (f : Dice.Fault.t) ->
          if f.Dice.Fault.f_class = Dice.Fault.Programming_error then
            Format.printf "  %a@." Dice.Fault.pp f)
        (List.filteri (fun i _ -> i < 3) x.Dice.Explorer.x_faults)
  | None -> print_endline "inverted-MED bug NOT found (unexpected)");

  (* Sanity: what did the buggy router actually select? *)
  (match Bgp.Prefix_trie.find prefix (Bgp.Speaker.loc_rib sp0) with
  | Some route ->
      Printf.printf "buggy router selected MED %s (spec says 10)\n"
        (match route.Bgp.Rib.attrs.Bgp.Attr.med with
        | Some m -> string_of_int m
        | None -> "-")
  | None -> print_endline "prefix not selected (unexpected)")
