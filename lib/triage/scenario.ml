module J = Telemetry.Json

type topo =
  | Demo27
  | Gadget
  | Bad_gadget
  | Random of { r_seed : int; r_tier1 : int; r_transit : int; r_stub : int }
  | File of string

type mangle = {
  mg_seed : int;
  mg_rate : float;
  mg_kinds : Netsim.Mangler.kind list;  (* [] = all kinds *)
  mg_schedule : Netsim.Mangler.schedule;
  mg_fragile_node : int option;  (* fragile-decode bug seeded here *)
}

type exploration = {
  ex_rounds : int;
  ex_nodes : int list;  (* explorer nodes; [] = every node *)
  ex_max_inputs : int;
  ex_max_branches : int;
  ex_solver_nodes : int;
  ex_fuzz_extra : int;
  ex_mangle_extra : int;
  ex_mangle_seed : int;
  ex_peers_per_node : int;
  ex_shadow_budget : int;
  ex_deadline_sec : float option;
}

type mode =
  | Explore of exploration
  | Direct of { dr_node : int; dr_peer : int; dr_input : (string * int) list option }

type deploy = {
  dp_topo : topo;
  dp_keep : int list option;
  dp_seed : int;
  dp_inject : Dice.Inject.scenario option;
  dp_settle_sec : float;
  dp_churn : Netsim.Churn.schedule;
  dp_mangle : mangle option;
  dp_confuzz : Confuzz.Mutation.t list;
  dp_cascade : bool;
  dp_mode : mode;
}

type t = Deploy of deploy | Wire of string

let default_exploration =
  let d = Dice.Explorer.default_params in
  { ex_rounds = 0;
    ex_nodes = [];
    ex_max_inputs = d.Dice.Explorer.limits.Concolic.Engine.max_inputs;
    ex_max_branches = d.Dice.Explorer.limits.Concolic.Engine.max_branches;
    ex_solver_nodes = d.Dice.Explorer.limits.Concolic.Engine.solver_nodes;
    ex_fuzz_extra = d.Dice.Explorer.fuzz_extra;
    ex_mangle_extra = d.Dice.Explorer.mangle_extra;
    ex_mangle_seed = d.Dice.Explorer.mangle_seed;
    ex_peers_per_node = d.Dice.Explorer.peers_per_node;
    ex_shadow_budget = d.Dice.Explorer.shadow_budget;
    ex_deadline_sec = None }

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let base_graph = function
  | Demo27 -> Topology.Demo27.graph
  | Gadget -> Topology.Gadget.embedded ()
  | Bad_gadget -> Topology.Gadget.bad_gadget ()
  | Random r ->
      Topology.Generate.generate
        ~params:
          { Topology.Generate.default_params with
            n_tier1 = r.r_tier1; n_transit = r.r_transit; n_stub = r.r_stub }
        (Netsim.Rng.create r.r_seed)
  | File text -> Topology.Topo_file.parse_exn text

let graph_of d =
  let g = base_graph d.dp_topo in
  match d.dp_keep with None -> g | Some keep -> Topology.Graph.induced g keep

(* ------------------------------------------------------------------ *)
(* Template expansion                                                  *)
(* ------------------------------------------------------------------ *)

(* One campaign template x N seeds = N distinct scenarios over the same
   network: the deployment seed and both fault-stream seeds rotate (the
   xor constants match the demo's --adversary wiring, so a template
   lifted from a demo run sweeps exactly like the live command line),
   the topology stays fixed. *)
let with_seed seed = function
  | Wire _ as w -> w
  | Deploy d ->
      let dp_mangle =
        Option.map (fun m -> { m with mg_seed = seed lxor 0xAD5E }) d.dp_mangle
      in
      let dp_mode =
        match d.dp_mode with
        | Direct _ as m -> m
        | Explore e ->
            if e.ex_mangle_extra > 0 then
              Explore { e with ex_mangle_seed = seed lxor 0x5EED }
            else Explore e
      in
      Deploy { d with dp_seed = seed; dp_mangle; dp_mode }

(* ------------------------------------------------------------------ *)
(* Size: what the minimizer shrinks                                    *)
(* ------------------------------------------------------------------ *)

let node_count d =
  match d.dp_keep with
  | Some keep -> List.length keep
  | None -> Topology.Graph.size (base_graph d.dp_topo)

let schedule_events d =
  List.length d.dp_churn
  + List.length d.dp_confuzz
  + (match d.dp_mangle with
    | None -> 0
    | Some m -> 1 + List.length m.mg_schedule)

let work_units d =
  match d.dp_mode with
  | Direct { dr_input; _ } ->
      1 + (match dr_input with Some i -> List.length i | None -> 0)
  | Explore e ->
      let rounds =
        if e.ex_rounds > 0 then e.ex_rounds
        else match e.ex_nodes with [] -> node_count d | l -> List.length l
      in
      rounds * (e.ex_max_inputs + e.ex_fuzz_extra + e.ex_mangle_extra)

let size = function
  | Wire bytes -> String.length bytes
  | Deploy d -> node_count d + schedule_events d + work_units d

(* ------------------------------------------------------------------ *)
(* Headless replay                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_signatures : Dice.Signature.t list;
  o_faults : Dice.Fault.t list;
  o_error : string option;
}

let no_outcome err = { o_signatures = []; o_faults = []; o_error = err }

let wire_signature_of_error (e : Bgp.Wire.error) =
  if Bgp.Wire.is_codec_crash e then
    Some
      (Dice.Signature.make ~role:Dice.Signature.wire_role ~node:(-1)
         ~property:"codec-crash" Dice.Fault.Programming_error e.Bgp.Wire.reason)
  else None

let run_wire bytes =
  match Bgp.Wire.decode bytes with
  | Ok _ -> no_outcome None
  | Error e -> (
      match wire_signature_of_error e with
      | Some sg -> { o_signatures = [ sg ]; o_faults = []; o_error = None }
      | None -> no_outcome None)
  | exception exn ->
      { o_signatures =
          [ Dice.Signature.make ~role:Dice.Signature.wire_role ~node:(-1)
              ~property:"codec-escape" Dice.Fault.Programming_error
              (Printexc.to_string exn) ];
        o_faults = [];
        o_error = None }

let explorer_params (e : exploration) churned =
  { Dice.Explorer.default_params with
    Dice.Explorer.limits =
      { Concolic.Engine.max_inputs = e.ex_max_inputs;
        max_branches = e.ex_max_branches;
        solver_nodes = e.ex_solver_nodes };
    fuzz_extra = e.ex_fuzz_extra;
    mangle_extra = e.ex_mangle_extra;
    mangle_seed = e.ex_mangle_seed;
    peers_per_node = e.ex_peers_per_node;
    shadow_budget = e.ex_shadow_budget;
    snapshot_deadline =
      (match e.ex_deadline_sec with
      | Some s -> Some (Netsim.Time.span_sec s)
      | None ->
          (* A churned or mangled deployment can cost the cut a marker;
             never let a minimization replay stall on it. *)
          if churned then Some (Netsim.Time.span_sec 30.) else None) }

let run_deploy ?(on_deployed = fun (_ : Topology.Build.t) -> ())
    ?on_fault ?until ?(around_explore = fun _ explore -> explore ())
    ?(on_finished = fun (_ : Topology.Build.t) (_ : Dice.Fault.t list) -> ()) ?probe d
    =
  let graph = graph_of d in
  let build = Topology.Build.deploy ~seed:d.dp_seed graph in
  Topology.Build.start_all build;
  ignore (Topology.Build.converge build);
  (match d.dp_inject with
  | None -> ()
  | Some s -> Dice.Inject.apply build s);
  (* Config mutations land after injection: each is one operator edit
     applied to the target speaker.  An inapplicable mutation (pruned
     map or entry) aborts the replay — the minimizer treats that as a
     rejected step. *)
  List.iter
    (fun m ->
      match Confuzz.Mutation.apply_speaker (Topology.Build.speaker build) m with
      | Ok () -> ()
      | Error e ->
          failwith (Printf.sprintf "confuzz: %s: %s" (Confuzz.Mutation.describe m) e))
    d.dp_confuzz;
  (* The deployment is now fully configured (inject + confuzz applied)
     but has not yet settled: the observation point for harvesting live
     configs or arming coverage before any route re-propagation. *)
  on_deployed build;
  (* Settle between injection and arming the fault schedules. *)
  if d.dp_settle_sec > 0. then
    Topology.Build.run_for build (Netsim.Time.span_sec d.dp_settle_sec);
  let net = build.Topology.Build.net in
  (match d.dp_mangle with
  | None -> ()
  | Some m ->
      Netsim.Network.set_crash_policy net
        (Netsim.Network.Absorb { restart_after = Some (Netsim.Time.span_sec 10.) });
      let mg =
        Netsim.Mangler.create ~rate:m.mg_rate
          ?kinds:(match m.mg_kinds with [] -> None | ks -> Some ks)
          ~seed:m.mg_seed ()
      in
      Netsim.Mangler.install mg net;
      ignore (Netsim.Mangler.apply mg net m.mg_schedule);
      (match m.mg_fragile_node with
      | Some node when Netsim.Network.has_node net node ->
          let sp = Topology.Build.speaker build node in
          sp.Bgp.Speaker.sp_set_bugs
            { (sp.Bgp.Speaker.sp_bugs ()) with Bgp.Router.fragile_decode = true }
      | Some _ | None -> ()));
  ignore (Netsim.Churn.apply net d.dp_churn);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let churned = d.dp_churn <> [] || d.dp_mangle <> None in
  let faults =
    match d.dp_mode with
    | Direct { dr_node; dr_peer; dr_input } ->
        let cut =
          Snapshot.Cut.create
            ~speakers:(fun id -> Topology.Build.speaker build id)
            net
        in
        let params =
          { Dice.Explorer.default_params with
            Dice.Explorer.snapshot_deadline = Some (Netsim.Time.span_sec 30.) }
        in
        Dice.Explorer.replay_direct ~params ~build ~cut ~gt ~node:dr_node
          ~peer_index:dr_peer ?input:dr_input ()
    | Explore e ->
        let params = explorer_params e churned in
        let nodes = match e.ex_nodes with [] -> None | l -> Some l in
        let rounds =
          if e.ex_rounds > 0 then e.ex_rounds
          else match nodes with None -> Topology.Graph.size graph | Some l -> List.length l
        in
        let explore () =
          Dice.Orchestrator.run ~params ?nodes ?on_fault ?probe ?until ~build ~gt
            ~rounds ()
        in
        (around_explore build explore).Dice.Orchestrator.faults
  in
  (* One last look at the cascade window: the only probe in [Direct]
     mode, and what the final round left behind in [Explore] mode. *)
  let faults = match probe with None -> faults | Some p -> faults @ p () in
  (* The network is still alive here: [on_finished] can read RIBs and
     speaker configs for the final state the checkers judged. *)
  on_finished build faults;
  { o_signatures = List.map (Dice.Signature.of_fault ~graph) faults;
    o_faults = faults;
    o_error = None }

(* A cascade scenario runs the detector over its own telemetry: one
   monitor around the whole deployment, probed after every round and
   once at the end, whether the run is live or a replay.  Each cascade
   found joins the outcome like any other detection, so [detects] and
   the corpus replayer treat cascade signatures like any other. *)
let run_observed ?on_deployed ?on_fault ?until ?around_explore ?on_finished t =
  (* A nested deployment installs its own telemetry clock; restore the
     caller's so an outer live run's timeline survives the replay. *)
  let saved_clock = Telemetry.current_clock () in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_clock saved_clock)
    (fun () ->
      match t with
      | Wire bytes -> run_wire bytes
      | Deploy d -> (
          let run ?probe () =
            run_deploy ?on_deployed ?on_fault ?until ?around_explore ?on_finished
              ?probe d
          in
          try
            if d.dp_cascade then
              Cascade.Online.with_monitor @@ fun mon ->
              run ~probe:(fun () -> Cascade.Online.probe mon) ()
            else run ()
          with e ->
            (* A scenario that cannot even be set up (pruned-away inject
               target, missing speaker, stalled cut) detects nothing —
               the minimizer treats that as a rejected step. *)
            no_outcome (Some (Printexc.to_string e))))

let run t = run_observed t

let detects t sg =
  List.exists (Dice.Signature.equal sg) (run t).o_signatures

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_topo = function
  | Demo27 -> J.Obj [ ("name", J.String "demo27") ]
  | Gadget -> J.Obj [ ("name", J.String "gadget") ]
  | Bad_gadget -> J.Obj [ ("name", J.String "bad-gadget") ]
  | Random r ->
      J.Obj
        [ ("name", J.String "random");
          ("seed", J.Int r.r_seed);
          ("tier1", J.Int r.r_tier1);
          ("transit", J.Int r.r_transit);
          ("stub", J.Int r.r_stub) ]
  | File text -> J.Obj [ ("name", J.String "file"); ("text", J.String text) ]

let json_of_inject (s : Dice.Inject.scenario) =
  match s with
  | Dice.Inject.Prefix_hijack { at; victim } ->
      J.Obj [ ("kind", J.String "prefix-hijack"); ("at", J.Int at); ("victim", J.Int victim) ]
  | Dice.Inject.Bogus_netmask { at } ->
      J.Obj [ ("kind", J.String "bogus-netmask"); ("at", J.Int at) ]
  | Dice.Inject.Policy_dispute { cycle; victim } ->
      J.Obj
        [ ("kind", J.String "policy-dispute");
          ("cycle", J.List (List.map (fun n -> J.Int n) cycle));
          ("victim", J.Int victim) ]
  | Dice.Inject.Loop_check_bug { at } ->
      J.Obj [ ("kind", J.String "loop-check-bug"); ("at", J.Int at) ]
  | Dice.Inject.Inverted_med_bug { at } ->
      J.Obj [ ("kind", J.String "inverted-med-bug"); ("at", J.Int at) ]
  | Dice.Inject.Crash_bug { at; community } ->
      J.Obj
        [ ("kind", J.String "crash-bug"); ("at", J.Int at);
          ("community", J.String (Bgp.Community.to_string community)) ]

let json_of_churn_event (ev : Netsim.Churn.event) =
  match ev with
  | Netsim.Churn.Node_down n -> J.Obj [ ("ev", J.String "node-down"); ("node", J.Int n) ]
  | Netsim.Churn.Node_up n -> J.Obj [ ("ev", J.String "node-up"); ("node", J.Int n) ]
  | Netsim.Churn.Link_down (a, b) ->
      J.Obj [ ("ev", J.String "link-down"); ("a", J.Int a); ("b", J.Int b) ]
  | Netsim.Churn.Link_up (a, b) ->
      J.Obj [ ("ev", J.String "link-up"); ("a", J.Int a); ("b", J.Int b) ]
  | Netsim.Churn.Partition (xs, ys) ->
      J.Obj
        [ ("ev", J.String "partition");
          ("xs", J.List (List.map (fun n -> J.Int n) xs));
          ("ys", J.List (List.map (fun n -> J.Int n) ys)) ]
  | Netsim.Churn.Heal -> J.Obj [ ("ev", J.String "heal") ]

let json_of_churn_entry (e : Netsim.Churn.entry) =
  match json_of_churn_event e.Netsim.Churn.ev with
  | J.Obj fields -> J.Obj (("at_us", J.Int e.Netsim.Churn.at) :: fields)
  | _ -> assert false

let json_of_links = function
  | None -> J.Null
  | Some links ->
      J.List (List.map (fun (a, b) -> J.List [ J.Int a; J.Int b ]) links)

let json_of_mangle_entry (e : Netsim.Mangler.entry) =
  let fields =
    match e.Netsim.Mangler.ev with
    | Netsim.Mangler.Set_rate r -> [ ("set", J.String "rate"); ("rate", J.Float r) ]
    | Netsim.Mangler.Set_kinds ks ->
        [ ("set", J.String "kinds");
          ("kinds", J.List (List.map (fun k -> J.String (Netsim.Mangler.kind_name k)) ks)) ]
    | Netsim.Mangler.Set_links links ->
        [ ("set", J.String "links"); ("links", json_of_links links) ]
  in
  J.Obj (("at_us", J.Int e.Netsim.Mangler.at) :: fields)

let json_of_mangle m =
  J.Obj
    [ ("seed", J.Int m.mg_seed);
      ("rate", J.Float m.mg_rate);
      ("kinds", J.List (List.map (fun k -> J.String (Netsim.Mangler.kind_name k)) m.mg_kinds));
      ("schedule", J.List (List.map json_of_mangle_entry m.mg_schedule));
      ("fragile_node", match m.mg_fragile_node with Some n -> J.Int n | None -> J.Null) ]

let json_of_input input =
  J.Obj (List.map (fun (k, v) -> (k, J.Int v)) input)

let json_of_mode = function
  | Direct { dr_node; dr_peer; dr_input } ->
      J.Obj
        [ ("mode", J.String "direct");
          ("node", J.Int dr_node);
          ("peer", J.Int dr_peer);
          ("input", match dr_input with Some i -> json_of_input i | None -> J.Null) ]
  | Explore e ->
      J.Obj
        [ ("mode", J.String "explore");
          ("rounds", J.Int e.ex_rounds);
          ("nodes", J.List (List.map (fun n -> J.Int n) e.ex_nodes));
          ("max_inputs", J.Int e.ex_max_inputs);
          ("max_branches", J.Int e.ex_max_branches);
          ("solver_nodes", J.Int e.ex_solver_nodes);
          ("fuzz_extra", J.Int e.ex_fuzz_extra);
          ("mangle_extra", J.Int e.ex_mangle_extra);
          ("mangle_seed", J.Int e.ex_mangle_seed);
          ("peers_per_node", J.Int e.ex_peers_per_node);
          ("shadow_budget", J.Int e.ex_shadow_budget);
          ("deadline_sec",
           match e.ex_deadline_sec with Some s -> J.Float s | None -> J.Null) ]

let to_json = function
  | Wire bytes ->
      let hex =
        String.concat ""
          (List.init (String.length bytes) (fun i ->
               Printf.sprintf "%02x" (Char.code bytes.[i])))
      in
      J.Obj [ ("scenario", J.String "wire"); ("bytes_hex", J.String hex) ]
  | Deploy d ->
      J.Obj
        [ ("scenario", J.String "deploy");
          ("topo", json_of_topo d.dp_topo);
          ("keep",
           match d.dp_keep with
           | Some keep -> J.List (List.map (fun n -> J.Int n) keep)
           | None -> J.Null);
          ("seed", J.Int d.dp_seed);
          ("inject", match d.dp_inject with Some s -> json_of_inject s | None -> J.Null);
          ("settle_sec", J.Float d.dp_settle_sec);
          ("churn", J.List (List.map json_of_churn_entry d.dp_churn));
          ("mangle", match d.dp_mangle with Some m -> json_of_mangle m | None -> J.Null);
          ("confuzz", J.List (List.map Confuzz.Mutation.to_json d.dp_confuzz));
          ("cascade", J.Bool d.dp_cascade);
          ("run", json_of_mode d.dp_mode) ]

(* --- decoding ----------------------------------------------------- *)

let ( let* ) = Result.bind

open Telemetry.Artifact

let topo_of_json j =
  let* name = string_field "name" j in
  match name with
  | "demo27" -> Ok Demo27
  | "gadget" -> Ok Gadget
  | "bad-gadget" -> Ok Bad_gadget
  | "random" ->
      let* r_seed = int_field "seed" j in
      let* r_tier1 = int_field "tier1" j in
      let* r_transit = int_field "transit" j in
      let* r_stub = int_field "stub" j in
      Ok (Random { r_seed; r_tier1; r_transit; r_stub })
  | "file" ->
      let* text = string_field "text" j in
      Ok (File text)
  | other -> Error (Printf.sprintf "unknown topo %S" other)

let inject_of_json j =
  let* kind = string_field "kind" j in
  match kind with
  | "prefix-hijack" ->
      let* at = int_field "at" j in
      let* victim = int_field "victim" j in
      Ok (Dice.Inject.Prefix_hijack { at; victim })
  | "bogus-netmask" ->
      let* at = int_field "at" j in
      Ok (Dice.Inject.Bogus_netmask { at })
  | "policy-dispute" ->
      let* cycle = list_of as_int "cycle" j in
      let* victim = int_field "victim" j in
      Ok (Dice.Inject.Policy_dispute { cycle; victim })
  | "loop-check-bug" ->
      let* at = int_field "at" j in
      Ok (Dice.Inject.Loop_check_bug { at })
  | "inverted-med-bug" ->
      let* at = int_field "at" j in
      Ok (Dice.Inject.Inverted_med_bug { at })
  | "crash-bug" ->
      let* at = int_field "at" j in
      let* c = string_field "community" j in
      let* community = Bgp.Community.of_string c in
      Ok (Dice.Inject.Crash_bug { at; community })
  | other -> Error (Printf.sprintf "unknown inject kind %S" other)

let churn_entry_of_json j =
  let* at = int_field "at_us" j in
  let* ev = string_field "ev" j in
  let* event =
    match ev with
    | "node-down" -> let* n = int_field "node" j in Ok (Netsim.Churn.Node_down n)
    | "node-up" -> let* n = int_field "node" j in Ok (Netsim.Churn.Node_up n)
    | "link-down" ->
        let* a = int_field "a" j in
        let* b = int_field "b" j in
        Ok (Netsim.Churn.Link_down (a, b))
    | "link-up" ->
        let* a = int_field "a" j in
        let* b = int_field "b" j in
        Ok (Netsim.Churn.Link_up (a, b))
    | "partition" ->
        let* xs = list_of as_int "xs" j in
        let* ys = list_of as_int "ys" j in
        Ok (Netsim.Churn.Partition (xs, ys))
    | "heal" -> Ok Netsim.Churn.Heal
    | other -> Error (Printf.sprintf "unknown churn event %S" other)
  in
  Ok (Netsim.Churn.entry ~at event)

let kind_of_json j =
  let* s = as_string j in
  match Netsim.Mangler.kind_of_string s with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "unknown mangler kind %S" s)

let links_of_json = function
  | J.Null -> Ok None
  | J.List l ->
      let* pairs =
        map_result
          (function
            | J.List [ J.Int a; J.Int b ] -> Ok (a, b)
            | j -> Error (Printf.sprintf "expected [a,b], got %s" (J.to_string j)))
          l
      in
      Ok (Some pairs)
  | j -> Error (Printf.sprintf "expected links list, got %s" (J.to_string j))

let mangle_entry_of_json j =
  let* at = int_field "at_us" j in
  let* set = string_field "set" j in
  let* ev =
    match set with
    | "rate" -> let* r = float_field "rate" j in Ok (Netsim.Mangler.Set_rate r)
    | "kinds" ->
        let* ks = list_of kind_of_json "kinds" j in
        Ok (Netsim.Mangler.Set_kinds ks)
    | "links" ->
        let* v = field "links" j in
        let* links = links_of_json v in
        Ok (Netsim.Mangler.Set_links links)
    | other -> Error (Printf.sprintf "unknown mangle set %S" other)
  in
  Ok (Netsim.Mangler.entry ~at ev)

let mangle_of_json j =
  let* mg_seed = int_field "seed" j in
  let* mg_rate = float_field "rate" j in
  let* mg_kinds = list_of kind_of_json "kinds" j in
  let* mg_schedule = list_of mangle_entry_of_json "schedule" j in
  let mg_fragile_node =
    match opt_field "fragile_node" j with Some (J.Int n) -> Some n | _ -> None
  in
  Ok { mg_seed; mg_rate; mg_kinds; mg_schedule; mg_fragile_node }

let input_of_json = function
  | J.Obj fields ->
      map_result
        (fun (k, v) ->
          let* n = as_int v in
          Ok (k, n))
        fields
  | j -> Error (Printf.sprintf "expected input object, got %s" (J.to_string j))

let mode_of_json j =
  let* mode = string_field "mode" j in
  match mode with
  | "direct" ->
      let* dr_node = int_field "node" j in
      let* dr_peer = int_field "peer" j in
      let* dr_input =
        match opt_field "input" j with
        | None -> Ok None
        | Some v -> let* i = input_of_json v in Ok (Some i)
      in
      Ok (Direct { dr_node; dr_peer; dr_input })
  | "explore" ->
      let* ex_rounds = int_field "rounds" j in
      let* ex_nodes = list_of as_int "nodes" j in
      let* ex_max_inputs = int_field "max_inputs" j in
      let* ex_max_branches = int_field "max_branches" j in
      let* ex_solver_nodes = int_field "solver_nodes" j in
      let* ex_fuzz_extra = int_field "fuzz_extra" j in
      let* ex_mangle_extra = int_field "mangle_extra" j in
      let* ex_mangle_seed = int_field "mangle_seed" j in
      let* ex_peers_per_node = int_field "peers_per_node" j in
      let* ex_shadow_budget = int_field "shadow_budget" j in
      let ex_deadline_sec =
        match opt_field "deadline_sec" j with
        | Some (J.Float f) -> Some f
        | Some (J.Int n) -> Some (float_of_int n)
        | _ -> None
      in
      Ok
        (Explore
           { ex_rounds; ex_nodes; ex_max_inputs; ex_max_branches; ex_solver_nodes;
             ex_fuzz_extra; ex_mangle_extra; ex_mangle_seed; ex_peers_per_node;
             ex_shadow_budget; ex_deadline_sec })
  | other -> Error (Printf.sprintf "unknown mode %S" other)

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    try
      Ok
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "bad hex string"

let of_json j =
  let* scenario = string_field "scenario" j in
  match scenario with
  | "wire" ->
      let* hex = string_field "bytes_hex" j in
      let* bytes = bytes_of_hex hex in
      Ok (Wire bytes)
  | "deploy" ->
      let* topo_v = field "topo" j in
      let* dp_topo = topo_of_json topo_v in
      let* dp_keep =
        match opt_field "keep" j with
        | None -> Ok None
        | Some _ -> Result.map Option.some (list_of as_int "keep" j)
      in
      let* dp_seed = int_field "seed" j in
      let* dp_inject =
        match opt_field "inject" j with
        | None -> Ok None
        | Some v -> let* s = inject_of_json v in Ok (Some s)
      in
      let* dp_settle_sec = float_field "settle_sec" j in
      let* dp_churn = list_of churn_entry_of_json "churn" j in
      let* dp_mangle =
        match opt_field "mangle" j with
        | None -> Ok None
        | Some v -> let* m = mangle_of_json v in Ok (Some m)
      in
      let* dp_confuzz =
        (* Absent in scenarios filed before the config fuzzer existed. *)
        match opt_field "confuzz" j with
        | None -> Ok []
        | Some _ -> list_of Confuzz.Mutation.of_json "confuzz" j
      in
      (* Absent in scenarios filed before the cascade detector existed. *)
      let dp_cascade =
        match opt_field "cascade" j with Some (J.Bool b) -> b | _ -> false
      in
      let* run_v = field "run" j in
      let* dp_mode = mode_of_json run_v in
      Ok
        (Deploy
           { dp_topo; dp_keep; dp_seed; dp_inject; dp_settle_sec; dp_churn;
             dp_mangle; dp_confuzz; dp_cascade; dp_mode })
  | other -> Error (Printf.sprintf "unknown scenario %S" other)

let to_string t = J.to_string (to_json t)

let of_string s =
  let* j = J.of_string s in
  of_json j

let equal a b = String.equal (to_string a) (to_string b)
