(* The demo driver: reproduces the paper's demonstration — DiCE
   executing an exploration experiment over a topology of 27 BGP
   routers under Internet-like conditions — and renders the view the
   demo GUI showed (Figure 1).  The flags describe one replayable run,
   a Triage.Scenario value; the demo executes that value through
   [Scenario.run_observed] and files detections against the same
   value, so every repro is the run by construction. *)

module S = Triage.Scenario

let ( let* ) = Result.bind

(* -t NAME as a scenario topology.  "gao-rexford:N" is N routers in
   the canonical Internet-like tiering (bare "gao-rexford" takes N from
   --nodes); "@FILE" is carried as Topo_file text. *)
let topo_of_flag ~nodes ~seed flag =
  let random (r_tier1, r_transit, r_stub) =
    S.Random { r_seed = seed; r_tier1; r_transit; r_stub }
  in
  let gao_rexford n =
    match n with
    | Some n when n >= 5 -> Ok (random (Topology.Gao_rexford.tiering ~nodes:n))
    | Some _ | None -> Error (flag ^ ": expected a node count >= 5")
  in
  let arg k = String.sub flag k (String.length flag - k) in
  match flag with
  | "demo27" -> Ok S.Demo27
  | "gadget" -> Ok S.Gadget
  | "bad-gadget" -> Ok S.Bad_gadget
  | "random" ->
      let stub = max 1 (nodes / 2) in
      let transit = max 1 (nodes - stub - 2) in
      Ok (random (max 1 (nodes - stub - transit), transit, stub))
  | "gao-rexford" -> gao_rexford (Some nodes)
  | _ when String.starts_with ~prefix:"gao-rexford:" flag ->
      gao_rexford (int_of_string_opt (arg 12))
  | _ when String.length flag > 1 && flag.[0] = '@' ->
      Result.map
        (fun g -> S.File (Topology.Topo_file.render g))
        (Topology.Topo_file.load (arg 1))
  | other ->
      Error
        (Printf.sprintf
           "unknown topology %S \
            (demo27|gadget|bad-gadget|random|gao-rexford[:N]|@file.topo)"
           other)

let faults =
  let open Dice.Inject in
  [ ("none", None);
    ("hijack", Some (Prefix_hijack { at = 21; victim = 11 }));
    ("martian", Some (Bogus_netmask { at = 12 }));
    ( "dispute",
      Some (Policy_dispute { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim }) );
    ("loop-bug", Some (Loop_check_bug { at = 3 }));
    ("med-bug", Some (Inverted_med_bug { at = 3 }));
    ("crash-bug", Some (Crash_bug { at = 3; community = Bgp.Community.make 64999 13 })) ]

(* Under --confuzz: N seeded operator-error config mutations, each kept
   iff the stack so far applies to the deployed configs (the config
   fuzzer's rule).  At 0 no RNG is created, so the run is identical to
   one without --confuzz. *)
let draw_confuzz graph seed n =
  if n <= 0 then []
  else
    let rng = Netsim.Rng.create (seed lxor 0xC0F2) in
    let ctx = Confuzz.Mutation.ctx_of_graph graph in
    let rec gen acc k tries =
      if k = 0 || tries = 0 then List.rev acc
      else
        match Confuzz.Mutation.random ~rng ~parent:(List.rev acc) ctx with
        | Some m when Confuzz.Mutation.applies ctx (List.rev (m :: acc)) ->
            gen (m :: acc) (k - 1) (tries - 1)
        | Some _ | None -> gen acc k (tries - 1)
    in
    gen [] n (8 * n)

(* The run -t/-s/-f/-r/--confuzz describe, before any overlay flag:
   deploy, inject, mutate, settle 10 s, explore. *)
let base_deploy ~topo ~graph ~seed ~inject ~rounds ~confuzz =
  { S.dp_topo = topo;
    dp_keep = None;
    dp_seed = seed;
    dp_inject = inject;
    dp_settle_sec = 10.;
    dp_churn = [];
    dp_mangle = None;
    dp_confuzz = draw_confuzz graph seed confuzz;
    dp_cascade = false;
    dp_mode = S.Explore { S.default_exploration with ex_rounds = rounds } }

(* The overlay flags, shared by the single run and every --campaign
   template.  --churn gives a deployment without churn a schedule that
   crashes-and-restores ~20% of the nodes and flaps ~20% of the links
   across the run.  --adversary (at a non-zero --mangle-rate) gives one
   without wire faults a mangler, a fragile-decode bug on one router
   and mangled exploration seeds; at rate 0 nothing is added.  Either
   gives cuts a 30 s deadline, so a lost marker aborts into a Partial
   instead of stalling the round.  --cascade arms the detector. *)
let overlay ~churn ~adversary ~mangle_rate ~cascade (d : S.deploy) =
  let graph = lazy (S.graph_of d) in
  let seed = d.S.dp_seed in
  let add_churn = churn && d.S.dp_churn = [] in
  let add_mangle = adversary && mangle_rate > 0. && d.S.dp_mangle = None in
  let dp_churn =
    if not add_churn then d.S.dp_churn
    else
      let g = Lazy.force graph in
      let rounds =
        match d.S.dp_mode with
        | S.Explore e when e.S.ex_rounds > 0 -> e.S.ex_rounds
        | S.Explore _ -> Topology.Graph.size g
        | S.Direct _ -> 3
      in
      let link (e : Topology.Graph.edge) = (e.Topology.Graph.a, e.Topology.Graph.b) in
      Netsim.Churn.random
        ~rng:(Netsim.Rng.create (seed lxor 0xC4A0))
        ~nodes:(Topology.Graph.node_ids g)
        ~links:(List.map link g.Topology.Graph.edges)
        ~start:(Netsim.Time.span_sec 5.)
        ~duration:(Netsim.Time.span_sec (float_of_int rounds *. 10.))
        ()
  in
  let dp_mangle =
    if not add_mangle then d.S.dp_mangle
    else
      let ids = Topology.Graph.node_ids (Lazy.force graph) in
      Some
        { S.mg_seed = seed lxor 0xAD5E;
          mg_rate = mangle_rate;
          mg_kinds = [];
          mg_schedule = [];
          mg_fragile_node = Some (List.nth ids (min 3 (List.length ids - 1))) }
  in
  let dp_mode =
    match d.S.dp_mode with
    | S.Explore e when add_churn || add_mangle ->
        let e =
          { e with
            S.ex_deadline_sec = Some (Option.value e.S.ex_deadline_sec ~default:30.) }
        in
        if add_mangle then
          S.Explore { e with S.ex_mangle_extra = 6; ex_mangle_seed = seed lxor 0x5EED }
        else S.Explore e
    | m -> m
  in
  { d with S.dp_churn; dp_mangle; dp_cascade = d.S.dp_cascade || cascade; dp_mode }

let fail msg =
  Printf.eprintf "dice_demo: %s\n" msg;
  2

let with_telemetry file ~attrs f =
  match file with
  | None -> f ()
  | Some path ->
      let r = Telemetry.with_jsonl path ~attrs f in
      Printf.printf "wrote telemetry to %s\n%!" path;
      r

(* Under --campaign: run a dice-campaign/1 sweep through the
   supervising driver instead of a single deployment, with the overlay
   flags on every template, --corpus redirecting filing and --telemetry
   one artifact for the whole sweep.  A directory that already holds a
   journal is resumed rather than restarted. *)
let run_campaign ~overlay spec_path dir ~corpus_dir ~telemetry_file ~verbose =
  match Campaign.Spec.load spec_path with
  | Error e -> fail e
  | Ok spec -> (
      let overlay (t : Campaign.Spec.template) =
        match t.Campaign.Spec.t_scenario with
        | S.Wire _ -> t
        | S.Deploy d -> { t with Campaign.Spec.t_scenario = S.Deploy (overlay d) }
      in
      let spec =
        { spec with
          Campaign.Spec.c_templates = List.map overlay spec.Campaign.Spec.c_templates }
      in
      let log = if verbose then prerr_endline else ignore in
      let go () =
        if Sys.file_exists (Filename.concat dir "journal.jsonl") then begin
          Printf.printf "resuming campaign in %s\n%!" dir;
          Campaign.Run.resume ~log ?corpus_dir ~dir ()
        end
        else begin
          Campaign.Run.print_start ~dir spec;
          Campaign.Run.start ~log ?corpus_dir ~dir spec
        end
      in
      let attrs = [ ("campaign", Telemetry.Json.String spec.Campaign.Spec.c_name) ] in
      match with_telemetry telemetry_file ~attrs go with
      | Error e -> fail e
      | Ok r -> Campaign.Run.print_result ~dir r)

(* Printed once the deployment is configured, before it settles. *)
let print_plan ~corpus_dir ~rounds (d : S.deploy) build =
  Printf.printf "live: %d routes, %d sessions established\n%!"
    (Topology.Build.total_loc_routes build)
    (Topology.Build.established_sessions build);
  let describe fmt f x = Printf.printf fmt (f x) in
  Option.iter (describe "injected: %s\n%!" Dice.Inject.describe) d.S.dp_inject;
  List.iter (describe "confuzz: %s\n%!" Confuzz.Mutation.describe) d.S.dp_confuzz;
  (match d.S.dp_mangle with
  | Some { S.mg_rate; mg_fragile_node = Some node; _ } ->
      Printf.printf
        "adversary: mangling wire traffic at rate %.3f; seeded fragile-decode bug \
         at node %d\n%!"
        mg_rate node
  | Some _ | None -> ());
  if d.S.dp_churn <> [] then begin
    Printf.printf "churn schedule: %d node crash(es), %d link flap(s)\n%!"
      (Netsim.Churn.node_crashes d.S.dp_churn)
      (Netsim.Churn.link_downs d.S.dp_churn);
    Format.printf "%a%!" Netsim.Churn.pp d.S.dp_churn
  end;
  Option.iter (Printf.printf "corpus: filing minimized repros into %s\n%!") corpus_dir;
  Printf.printf "running DiCE for %d exploration rounds%s%s...\n%!" rounds
    (if d.S.dp_churn <> [] then " under churn" else "")
    (if d.S.dp_mangle <> None then " under adversarial wire faults" else "")

let print_filed collector =
  match Triage.Auto.filed collector with
  | [] -> print_endline "corpus: no detections to file."
  | filed ->
      List.iter
        (fun (fd : Triage.Auto.filed) ->
          let sg = Triage.Signature.to_string fd.Triage.Auto.fd_signature in
          match (fd.Triage.Auto.fd_entry, fd.Triage.Auto.fd_result) with
          | Some entry, r ->
              Printf.printf "corpus: filed %s (%s, hits %d)\n%!" sg
                (match r with
                | Some r ->
                    Printf.sprintf "size %d -> %d" r.Triage.Minimize.r_original_size
                      r.Triage.Minimize.r_minimized_size
                | None -> "unminimized")
                entry.Triage.Corpus.e_hits
          | None, _ ->
              Printf.printf
                "corpus: %s detected live but not reproduced headlessly; not \
                 filed\n%!"
                sg)
        filed

let render ~graph ~collector ~dot_file ~report (summary : Dice.Orchestrator.summary) =
  let annotations =
    List.filter_map
      (fun (r : Dice.Orchestrator.round) ->
        match Dice.Orchestrator.round_exploration r with
        | None -> None
        | Some x ->
            Some
              ( x.Dice.Explorer.x_node,
                { Topology.Render.label =
                    Printf.sprintf "%din/%dp" x.Dice.Explorer.x_inputs
                      x.Dice.Explorer.x_distinct_paths;
                  highlight = x.Dice.Explorer.x_faults <> [] } ))
      summary.Dice.Orchestrator.rounds
  in
  print_newline ();
  print_string (Topology.Render.ascii ~annotations graph);
  print_newline ();
  Format.printf "%a@." Dice.Orchestrator.pp_summary summary;
  (match summary.Dice.Orchestrator.faults with
  | [] -> print_endline "no faults detected."
  | faults ->
      Printf.printf "%d fault(s) detected:\n" (List.length faults);
      List.iter (fun f -> Format.printf "  %a@." Dice.Fault.pp f) faults);
  Option.iter print_filed collector;
  if report then begin
    print_newline ();
    print_endline "telemetry report:";
    Format.printf "%a%!" Telemetry.report ()
  end;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Topology.Render.dot ~annotations graph));
      Printf.printf "wrote Graphviz rendering to %s\n" path)
    dot_file

(* Every flag is resolved before anything is deployed: a bad value is
   an [Error] (a usage error); a scenario that cannot be set up exits
   2. *)
let run topo nodes seed (fault, inject) rounds churn adversary mangle_rate
    confuzz cascade corpus_dir dot_file telemetry_file report verbose campaign
    campaign_dir =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let* () =
    if mangle_rate < 0. || mangle_rate > 1. then Error "--mangle-rate must be in [0,1]"
    else if Option.fold rounds ~none:false ~some:(fun r -> r < 1) then
      Error "--rounds must be at least 1"
    else Ok ()
  in
  let overlay = overlay ~churn ~adversary ~mangle_rate ~cascade in
  match campaign with
  | Some spec_path ->
      Ok
        (run_campaign ~overlay spec_path campaign_dir ~corpus_dir ~telemetry_file
           ~verbose)
  | None ->
      let* topo_v = topo_of_flag ~nodes ~seed topo in
      let graph = S.base_graph topo_v in
      let rounds = Option.value rounds ~default:(Topology.Graph.size graph) in
      let d =
        overlay (base_deploy ~topo:topo_v ~graph ~seed ~inject ~rounds ~confuzz)
      in
      let scenario = S.Deploy d in
      Printf.printf "deploying %s\n%!" (Topology.Render.summary_line graph);
      let collector =
        Option.map
          (fun dir ->
            Triage.Auto.collector ~max_tests:60 ~corpus_dir:dir ~scenario ~graph ())
          corpus_dir
      in
      let summary = ref None in
      let around_explore build explore =
        (* The orchestrator installs the sim clock at run entry, but the
           artifact's run header is written before that: install it
           here so every timestamp is simulated time. *)
        Telemetry.set_clock (fun () ->
            Netsim.Time.to_us (Netsim.Engine.now build.Topology.Build.engine));
        let attrs =
          Telemetry.Json.
            [ ("topology", String topo); ("seed", Int seed); ("fault", String fault);
              ("rounds", Int rounds); ("churn", Bool churn);
              ("adversary", Bool (d.S.dp_mangle <> None)) ]
        in
        let s = with_telemetry telemetry_file ~attrs explore in
        summary := Some s;
        s
      in
      let on_fault f =
        if f.Dice.Fault.f_class = Dice.Fault.Cascade then
          Format.printf "cascade detected: %a@." Dice.Fault.pp f;
        Option.iter (fun c -> Triage.Auto.hook c f) collector
      in
      let o =
        S.run_observed ~on_deployed:(print_plan ~corpus_dir ~rounds d) ~on_fault
          ~around_explore scenario
      in
      match (o.S.o_error, !summary) with
      | None, Some summary ->
          render ~graph ~collector ~dot_file ~report summary;
          Ok 0
      | error, _ -> Ok (fail (Option.value error ~default:"no exploration ran"))

open Cmdliner

let topo =
  let doc =
    "Topology: demo27 (Figure 1), gadget, bad-gadget (the bare 4-node \
     dispute wheel), random, gao-rexford[:N] (N-router Internet-like \
     tiering, default N from --nodes), or @FILE (Topo_file format)."
  in
  Arg.(value & opt string "demo27" & info [ "t"; "topology" ] ~docv:"NAME" ~doc)

let nodes =
  let doc = "Approximate AS count for random topologies." in
  Arg.(value & opt int 27 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let seed =
  let doc = "Random seed (topology, link characteristics, exploration)." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let fault =
  let doc =
    "Fault to inject before exploring: none, hijack, martian, dispute \
     (requires -t gadget or -t bad-gadget), loop-bug, med-bug, crash-bug."
  in
  let faults = List.map (fun (name, inject) -> (name, (name, inject))) faults in
  Arg.(value & opt (enum faults) ("none", None) & info [ "f"; "fault" ] ~docv:"FAULT" ~doc)

let rounds =
  let doc = "Exploration rounds (default: one per AS)." in
  Arg.(value & opt (some int) None & info [ "r"; "rounds" ] ~docv:"N" ~doc)

let churn =
  let doc =
    "Churn the deployment while DiCE runs: crash-and-restore ~20% of the \
     routers and flap ~20% of the links, with snapshot deadlines and the \
     supervised orchestrator keeping every round accounted for."
  in
  Arg.(value & flag & info [ "churn" ] ~doc)

let adversary =
  let doc =
    "Inject adversarial wire faults while DiCE runs: mangle live BGP \
     traffic byte-by-byte at --mangle-rate, seed a fragile-decode bug on \
     one router, absorb-and-restart routers that die on malformed input, \
     and feed the explorer mangled exploration seeds."
  in
  Arg.(value & flag & info [ "adversary" ] ~doc)

let mangle_rate =
  let doc =
    "Per-message probability of a wire fault under --adversary.  At 0 \
     the run is bit-identical to one without --adversary."
  in
  Arg.(value & opt float 0.05 & info [ "mangle-rate" ] ~docv:"RATE" ~doc)

let confuzz =
  let doc =
    "Apply $(docv) seeded operator-error configuration mutations (constant \
     typos, flipped actions, dropped or shadowed clauses, dangling map \
     references, mis-tagged TE pins) to the routers before exploring.  At \
     0 the run is bit-identical to one without --confuzz."
  in
  Arg.(value & opt int 0 & info [ "confuzz" ] ~docv:"N" ~doc)

let cascade =
  let doc =
    "Run the online cascade monitor alongside exploration: a bounded ring \
     of recent telemetry is re-analyzed after every round, and \
     self-sustaining failures (route oscillations, flap storms, \
     quarantine ping-pong) surface as cascade-class faults while the \
     system is still misbehaving."
  in
  Arg.(value & flag & info [ "cascade" ] ~doc)

let corpus_dir =
  let doc =
    "File every detection into the regression corpus at $(docv) \
     (dice-corpus/1): each newly-seen fault signature is confirmed by a \
     headless replay of this very run's scenario, delta-minimized, and \
     stored as a deterministic repro (replay with `dice_triage replay \
     $(docv)`)."
  in
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)

let dot_file =
  let doc = "Write a Graphviz .dot rendering of the annotated topology." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let telemetry_file =
  let doc =
    "Write the run's flight-recorder artifact (JSONL, schema \
     dice-telemetry/1) to $(docv): spans for every round / cut / \
     exploration / shadow replay, fault records with their causal span \
     path, simulator trace events, and a final metrics snapshot."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let report =
  let doc = "Print the metrics registry (counters, gauges, histograms) after the run." in
  Arg.(value & flag & info [ "report" ] ~doc)

let verbose =
  let doc = "Verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let campaign =
  let doc =
    "Run the dice-campaign/1 spec at $(docv) through the supervising \
     campaign driver instead of a single demo deployment, with --churn, \
     --adversary and --cascade overlaid onto every template, --corpus as \
     the filing directory and --telemetry one artifact for the sweep.  A \
     --campaign-dir that holds a journal is resumed.  Exit status follows \
     dice_campaign: 0 clean, 1 health gate failed, 2 spec errors."
  in
  Arg.(value & opt (some string) None & info [ "campaign" ] ~docv:"SPEC" ~doc)

let campaign_dir =
  let doc = "Campaign directory (journal, report, corpus) for --campaign." in
  Arg.(
    value & opt string "dice-campaign" & info [ "campaign-dir" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "online testing of federated and heterogeneous distributed systems" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Deploys a BGP topology on the built-in network simulator, optionally \
         injects a fault (operator mistake, policy conflict, or programming \
         error), and runs DiCE exploration rounds alongside the live system: \
         consistent snapshot, concolic input derivation, isolated replay over \
         clones, and privacy-preserving property checking.";
      `S Manpage.s_examples;
      `Pre "  dice_demo                       # healthy 27-router demo (Figure 1)";
      `Pre "  dice_demo -f hijack             # detect a prefix hijack";
      `Pre "  dice_demo -t gadget -f dispute  # detect a BAD GADGET dispute wheel";
      `Pre "  dice_demo --churn -f hijack     # keep detecting while routers crash";
      `Pre "  dice_demo --adversary           # mangle the wire, catch the codec crash";
      `Pre "  dice_demo -t gadget --confuzz 3 --corpus dice-corpus  # operator-error hunt";
      `Pre "  dice_demo -t bad-gadget -f dispute --cascade  # catch the oscillation as it spins";
      `Pre "  dice_demo -t gao-rexford:200 -r 3  # 200-router Internet-like tiering";
      `Pre "  dice_demo -f hijack --telemetry run.jsonl --report  # flight recorder";
      `Pre "  dice_demo -f hijack --corpus dice-corpus  # auto-minimize + file repros" ]
  in
  let status = function Ok code -> `Ok code | Error msg -> `Error (false, msg) in
  Cmd.v
    (Cmd.info "dice_demo" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret
        (const status
        $ (const run $ topo $ nodes $ seed $ fault $ rounds $ churn $ adversary
          $ mangle_rate $ confuzz $ cascade $ corpus_dir $ dot_file
          $ telemetry_file $ report $ verbose $ campaign $ campaign_dir)))

let () = exit (Cmd.eval' cmd)
