(* Coverage-guided config fuzzing: mutation catalog, clause coverage,
   scenario integration, minimizer stage, and the guidance loop. *)

module M = Confuzz.Mutation
module Cov = Bgp.Clause_cov

let check = Alcotest.check
let p = Bgp.Prefix.of_string_exn

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Mutation catalog                                                    *)
(* ------------------------------------------------------------------ *)

let pfx = p "192.0.2.0/24"

(* At least one value of every catalog kind, including optional-field
   variants. *)
let specimens =
  [ M.Pref_const { node = 1; map = "M"; seq = 10; value = 250 };
    M.Pref_swap { node = 1; map_a = "A"; seq_a = 10; map_b = "B"; seq_b = 20 };
    M.Med_const { node = 2; map = "M"; seq = 10; value = Some 40 };
    M.Med_const { node = 2; map = "M"; seq = 10; value = None };
    M.Action_flip { node = 0; map = "M"; seq = 5 };
    M.Match_drop { node = 3; map = "M"; seq = 10; idx = 1 };
    M.Match_dup { node = 3; map = "M"; seq = 10; idx = 0 };
    M.Match_reorder { node = 4; map = "M"; seq = 10 };
    M.Entry_shadow { node = 4; map = "M"; seq = 10 };
    M.Community_rewrite
      { node = 5; map = "M"; seq = 10; community = Bgp.Community.make 65000 999 };
    M.Community_strip { node = 5; map = "M"; seq = 10 };
    M.Prefix_widen { node = 6; map = "M"; seq = 10; idx = 0; ge = Some 0; le = Some 32 };
    M.Prefix_widen { node = 6; map = "M"; seq = 10; idx = 0; ge = None; le = None };
    M.Ref_dangle { node = 7; neighbor = 0; dir = M.Import };
    M.Ref_dangle { node = 7; neighbor = 1; dir = M.Export };
    M.Ref_swap { node = 8; neighbor = 0 };
    M.Originate_foreign { node = 9; prefix = pfx };
    M.Network_drop { node = 9; prefix = pfx };
    M.Te_pin { node = 1; map = "FROM-PEER"; prefix = pfx; via_asn = 1002; pref = 300 } ]

let mutation_json_roundtrip () =
  List.iter
    (fun m ->
      match M.of_json (M.to_json m) with
      | Ok m' ->
          if m <> m' then
            Alcotest.failf "round-trip changed %s into %s" (M.describe m)
              (M.describe m')
      | Error e -> Alcotest.failf "decode of %s failed: %s" (M.describe m) e)
    specimens;
  Alcotest.(check bool) "every kind described" true
    (List.for_all (fun m -> String.length (M.describe m) > 0) specimens);
  check Alcotest.int "catalog coverage: 16 distinct kinds" 16
    (List.length (List.sort_uniq String.compare (List.map M.kind_name specimens)));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (M.of_json (Telemetry.Json.String "nope")));
  Alcotest.(check bool) "unknown kind rejected" true
    (Result.is_error
       (M.of_json (Telemetry.Json.Obj [ ("kind", Telemetry.Json.String "frob") ])))

(* A small config to mutate: one neighbor, one referenced two-entry map. *)
let sample_config () =
  let c = Bgp.Community.make 65001 100 in
  let map =
    [ Bgp.Policy.entry 10 Bgp.Policy.Permit
        ~matches:
          [ Bgp.Policy.Match_prefix [ Bgp.Policy.prefix_rule ~le:24 (p "10.0.0.0/8") ];
            Bgp.Policy.Match_community c ]
        ~sets:[ Bgp.Policy.Set_local_pref 100; Bgp.Policy.Add_community c ];
      Bgp.Policy.entry 20 Bgp.Policy.Deny ]
  in
  Bgp.Config.make ~asn:1
    ~router_id:(Bgp.Ipv4.of_string_exn "10.0.0.1")
    ~networks:[ p "192.0.2.0/24" ]
    ~neighbors:
      [ Bgp.Config.neighbor (Bgp.Ipv4.of_string_exn "10.0.0.2") ~remote_as:2
          ~import_map:"IN" ]
    ~route_maps:[ ("IN", map) ]
    ()

let apply_exn m cfg =
  match M.apply_config m cfg with
  | Ok cfg' -> cfg'
  | Error e -> Alcotest.failf "%s failed: %s" (M.describe m) e

let entry_of cfg map seq =
  match Bgp.Config.find_route_map cfg map with
  | None -> Alcotest.failf "map %s vanished" map
  | Some entries -> (
      match List.find_opt (fun (e : Bgp.Policy.entry) -> e.Bgp.Policy.seq = seq) entries with
      | Some e -> e
      | None -> Alcotest.failf "entry %d vanished from %s" seq map)

let mutation_apply_semantics () =
  let cfg = sample_config () in
  (* Action flip turns the deny into a permit. *)
  let flipped = apply_exn (M.Action_flip { node = 0; map = "IN"; seq = 20 }) cfg in
  Alcotest.(check bool) "entry 20 now permits" true
    ((entry_of flipped "IN" 20).Bgp.Policy.action = Bgp.Policy.Permit);
  (* Dropping match 0 leaves a one-clause conjunction. *)
  let dropped = apply_exn (M.Match_drop { node = 0; map = "IN"; seq = 10; idx = 0 }) cfg in
  check Alcotest.int "one match left" 1
    (List.length (entry_of dropped "IN" 10).Bgp.Policy.matches);
  (* Shadowing inserts a match-anything copy ahead of the whole map. *)
  let shadowed = apply_exn (M.Entry_shadow { node = 0; map = "IN"; seq = 10 }) cfg in
  let first =
    List.hd (Option.get (Bgp.Config.find_route_map shadowed "IN"))
  in
  Alcotest.(check bool) "shadow entry is first and matches anything" true
    (first.Bgp.Policy.seq < 10 && first.Bgp.Policy.matches = []);
  Alcotest.(check bool) "shadow copies the action" true
    (first.Bgp.Policy.action = Bgp.Policy.Permit);
  (* Foreign origination adds the network once and refuses a repeat. *)
  let stolen = p "203.0.113.0/24" in
  let orig = apply_exn (M.Originate_foreign { node = 0; prefix = stolen }) cfg in
  Alcotest.(check bool) "network added" true
    (List.exists (Bgp.Prefix.equal stolen) orig.Bgp.Config.networks);
  Alcotest.(check bool) "already-originated prefix refused" true
    (Result.is_error (M.apply_config (M.Originate_foreign { node = 0; prefix = stolen }) orig));
  (* Network drop is the exact inverse: removing the stolen prefix gives
     the original networks back, and a second drop is inapplicable. *)
  let dropped_net = apply_exn (M.Network_drop { node = 0; prefix = stolen }) orig in
  Alcotest.(check bool) "drop restores the original networks" true
    (dropped_net.Bgp.Config.networks = cfg.Bgp.Config.networks);
  Alcotest.(check bool) "dropping a non-originated prefix refused" true
    (Result.is_error
       (M.apply_config (M.Network_drop { node = 0; prefix = stolen }) dropped_net));
  (* A dangled reference is exactly the kind of config validate rejects. *)
  let dangled = apply_exn (M.Ref_dangle { node = 0; neighbor = 0; dir = M.Import }) cfg in
  Alcotest.(check bool) "dangling import flagged by validate" true
    (Result.is_error (Bgp.Config.validate dangled));
  Alcotest.(check bool) "original still validates" true
    (Result.is_ok (Bgp.Config.validate cfg));
  (* TE pin prepends a high-pref entry on the via-neighbor's import map. *)
  let pinned =
    apply_exn
      (M.Te_pin { node = 0; map = "IN"; prefix = stolen; via_asn = 2; pref = 300 })
      cfg
  in
  let pin = List.hd (Option.get (Bgp.Config.find_route_map pinned "IN")) in
  Alcotest.(check bool) "pin runs first at pref 300" true
    (pin.Bgp.Policy.seq < 10
    && List.mem (Bgp.Policy.Set_local_pref 300) pin.Bgp.Policy.sets);
  (* Mutations name their target; a missing map is a clean error. *)
  match M.apply_config (M.Action_flip { node = 0; map = "NOPE"; seq = 10 }) cfg with
  | Ok _ -> Alcotest.fail "missing map must not apply"
  | Error e -> Alcotest.(check bool) "error names the map" true (contains_substring e "NOPE")

(* ------------------------------------------------------------------ *)
(* Clause coverage                                                     *)
(* ------------------------------------------------------------------ *)

let coverage_registry () =
  let cfg = sample_config () in
  Cov.reset ();
  Cov.register_config ~node:1 cfg;
  (* Entry 10: 2 match clauses x 2 outcomes + action + 2 sets = 7.
     Entry 20: action only = 1.  Map fallthrough = 1.  Total 9. *)
  check Alcotest.int "universe from config" 9 (Cov.universe_size ());
  check Alcotest.int "nothing covered yet" 0 (Cov.covered ());
  Cov.enable ();
  Fun.protect ~finally:Cov.disable @@ fun () ->
  let map = Option.get (Bgp.Config.find_route_map cfg "IN") in
  let site = Cov.site ~node:1 (Some "IN") in
  Alcotest.(check bool) "site resolves while enabled" true (site <> None);
  Alcotest.(check bool) "accept-all has no site" true (Cov.site ~node:1 None = None);
  let c = Bgp.Community.make 65001 100 in
  let attrs ~tagged =
    let a =
      Bgp.Attr.make ~as_path:[ Bgp.As_path.Seq [ 2 ] ]
        ~next_hop:(Bgp.Ipv4.of_string_exn "10.0.0.2") ()
    in
    if tagged then Bgp.Attr.add_community c a else a
  in
  (* Full permit path: both matches true, action, both sets. *)
  ignore (Bgp.Policy.apply ?site map (p "10.1.0.0/16") (attrs ~tagged:true));
  check Alcotest.int "permit path covers 5 points" 5 (Cov.covered ());
  (* Short-circuit: the community clause after a failing prefix clause
     is never evaluated, so only m0=F is new. *)
  ignore (Bgp.Policy.apply ?site map (p "172.16.0.0/12") (attrs ~tagged:true));
  let after_miss = Cov.covered () in
  check Alcotest.int "miss adds m0=F and entry-20 action" 7 after_miss;
  Alcotest.(check bool) "m1=F still uncovered (short-circuit)" true
    (List.exists
       (fun pt -> pt.Cov.pt_seq = 10 && pt.Cov.pt_what = Bgp.Policy.Cov_match { idx = 1; outcome = false })
       (Cov.uncovered ()));
  (* In-block route without the community: m1=F finally covered. *)
  ignore (Bgp.Policy.apply ?site map (p "10.1.0.0/16") (attrs ~tagged:false));
  check Alcotest.int "m1=F covered" 8 (Cov.covered ());
  (* The deny-all tail entry always decides, so the per-map
     fallthrough is unreachable in this map — left uncovered. *)
  Alcotest.(check bool) "fallthrough uncovered" true
    (List.exists (fun pt -> pt.Cov.pt_what = Bgp.Policy.Cov_fallthrough) (Cov.uncovered ()));
  let hit =
    { Cov.pt_site = { Bgp.Policy.cs_node = 1; cs_map = "IN" };
      pt_seq = 10;
      pt_what = Bgp.Policy.Cov_match { idx = 0; outcome = true } }
  in
  check Alcotest.int "hit counter" 2 (Cov.hits hit);
  check Alcotest.string "stable point id" "n1/IN/e10/m0=T" (Cov.id_of hit)

let coverage_never_changes_results () =
  let cfg = sample_config () in
  let map = Option.get (Bgp.Config.find_route_map cfg "IN") in
  let attrs =
    Bgp.Attr.add_community (Bgp.Community.make 65001 100)
      (Bgp.Attr.make ~as_path:[ Bgp.As_path.Seq [ 2 ] ]
         ~next_hop:(Bgp.Ipv4.of_string_exn "10.0.0.2") ())
  in
  let routes = [ p "10.1.0.0/16"; p "10.1.1.0/25"; p "172.16.0.0/12" ] in
  let plain = List.map (fun r -> Bgp.Policy.apply map r attrs) routes in
  Cov.reset ();
  Cov.register_config ~node:1 cfg;
  Cov.enable ();
  let observed =
    Fun.protect ~finally:Cov.disable @@ fun () ->
    let site = Cov.site ~node:1 (Some "IN") in
    List.map (fun r -> Bgp.Policy.apply ?site map r attrs) routes
  in
  Alcotest.(check bool) "instrumented results identical" true (plain = observed);
  Alcotest.(check bool) "observer uninstalled" false (Bgp.Policy.cov_on ())

(* ------------------------------------------------------------------ *)
(* Scenario integration                                                *)
(* ------------------------------------------------------------------ *)

let deploy ~confuzz =
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = Triage.Scenario.Gadget;
      dp_keep = None;
      dp_seed = 1;
      dp_inject = None;
      dp_settle_sec = 5.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz = confuzz;
      dp_cascade = false;
      dp_mode =
        Triage.Scenario.Direct { dr_node = 4; dr_peer = 0; dr_input = None } }

let scenario_confuzz_roundtrip () =
  let s =
    deploy
      ~confuzz:
        [ M.Originate_foreign { node = 4; prefix = p "192.0.6.0/24" };
          M.Te_pin
            { node = 1; map = "FROM-PEER"; prefix = p "192.0.0.0/24";
              via_asn = 1002; pref = 300 } ]
  in
  (match Triage.Scenario.of_string (Triage.Scenario.to_string s) with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (Triage.Scenario.equal s s')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* Corpus entries written before the confuzz field existed decode to
     an empty mutation list. *)
  let legacy =
    {|{"scenario":"deploy","topo":{"name":"gadget"},"keep":null,"seed":1,
      "inject":null,"settle_sec":5.0,"churn":[],"mangle":null,
      "run":{"mode":"direct","node":4,"peer":0,"input":null}}|}
  in
  match Triage.Scenario.of_string legacy with
  | Error e -> Alcotest.failf "legacy decode failed: %s" e
  | Ok legacy_s ->
      Alcotest.(check bool) "legacy == explicit empty list" true
        (Triage.Scenario.equal legacy_s (deploy ~confuzz:[]))

let signature_strings o =
  List.sort_uniq String.compare
    (List.map Dice.Signature.to_string o.Triage.Scenario.o_signatures)

let empty_stack_identity () =
  (* An empty mutation list is exactly the unfuzzed scenario: same
     replay, same outcome, and a legacy (pre-confuzz) encoding of the
     same deployment replays identically. *)
  let o_base = Triage.Scenario.run (deploy ~confuzz:[]) in
  let o_again = Triage.Scenario.run (deploy ~confuzz:[]) in
  check (Alcotest.option Alcotest.string) "clean deploy" None
    o_base.Triage.Scenario.o_error;
  check Alcotest.(list string) "deterministic" (signature_strings o_base)
    (signature_strings o_again);
  (* The guidance loop with a zero budget runs the baseline once and
     draws nothing from its RNG: no rounds, no findings, coverage
     frozen at the baseline. *)
  let ctx = M.ctx_of_graph (Topology.Gadget.embedded ()) in
  let calls = ref 0 in
  let r =
    Confuzz.Loop.run
      ~params:
        { Confuzz.Loop.p_budget = 0; p_seed = 1; p_guided = true; p_max_stack = 4 }
      ~ctx
      ~run_mutant:(fun stack ->
        incr calls;
        check Alcotest.int "only the empty stack runs" 0 (List.length stack);
        [])
      ()
  in
  check Alcotest.int "baseline only" 1 !calls;
  check Alcotest.int "no rounds" 0 (List.length r.Confuzz.Loop.rs_rounds);
  check Alcotest.int "no findings" 0 (List.length r.Confuzz.Loop.rs_findings);
  check Alcotest.int "coverage frozen at baseline"
    r.Confuzz.Loop.rs_baseline_covered r.Confuzz.Loop.rs_covered;
  Alcotest.(check bool) "observer removed after the campaign" false
    (Bgp.Policy.cov_on ())

let minimize_keeps_only_faulty_mutation () =
  (* Three stacked operator errors, one fault: ddmin over the mutation
     list keeps exactly the foreign origination. *)
  let stack =
    [ M.Pref_const { node = 9; map = "FROM-PROVIDER"; seq = 10; value = 100 };
      M.Originate_foreign { node = 4; prefix = p "192.0.6.0/24" };
      M.Med_const { node = 9; map = "TO-PROVIDER"; seq = 10; value = Some 7 } ]
  in
  let s = deploy ~confuzz:stack in
  let o = Triage.Scenario.run s in
  let target =
    match
      List.find_opt
        (fun sg -> sg.Dice.Signature.sg_class = Dice.Fault.Operator_mistake)
        o.Triage.Scenario.o_signatures
    with
    | Some sg -> sg
    | None -> Alcotest.fail "foreign origination must trip a baseline check"
  in
  let r = Triage.Minimize.run ~max_tests:80 ~target s in
  (match r.Triage.Minimize.r_minimized with
  | Triage.Scenario.Deploy d ->
      (match d.Triage.Scenario.dp_confuzz with
      | [ M.Originate_foreign _ ] -> ()
      | ms ->
          Alcotest.failf "expected the lone foreign origination, got [%s]"
            (String.concat "; " (List.map M.describe ms)))
  | Triage.Scenario.Wire _ -> Alcotest.fail "minimized into a wire scenario");
  Alcotest.(check bool) "minimized scenario still detects" true
    (Triage.Scenario.detects r.Triage.Minimize.r_minimized target)

(* ------------------------------------------------------------------ *)
(* Guidance                                                            *)
(* ------------------------------------------------------------------ *)

(* A cheap stand-in for a full deployment: evaluate every import policy
   over every originated prefix.  Enough signal for coverage guidance
   to steer by, and three orders of magnitude faster than the network. *)
let cheap_run_mutant ctx stack =
  let configs =
    List.fold_left
      (fun cfgs m ->
        List.map
          (fun (n, c) ->
            if n = M.node_of m then
              (n, match M.apply_config m c with Ok c' -> c' | Error _ -> c)
            else (n, c))
          cfgs)
      ctx.M.cx_configs stack
  in
  let prefixes = List.map snd ctx.M.cx_prefixes in
  List.iter
    (fun (node, cfg) ->
      List.iter
        (fun (nb : Bgp.Config.neighbor) ->
          let pol = Bgp.Config.import_policy cfg nb in
          let site = Cov.site ~node nb.Bgp.Config.import_map in
          let attrs =
            Bgp.Attr.make
              ~as_path:[ Bgp.As_path.Seq [ nb.Bgp.Config.remote_as ] ]
              ~next_hop:nb.Bgp.Config.addr ()
          in
          List.iter (fun pf -> ignore (Bgp.Policy.apply ?site pol pf attrs)) prefixes)
        cfg.Bgp.Config.neighbors)
    configs;
  []

let guided_beats_random () =
  let ctx = M.ctx_of_graph (Topology.Gadget.embedded ()) in
  let arm guided =
    Confuzz.Loop.run
      ~params:
        { Confuzz.Loop.p_budget = 40; p_seed = 3; p_guided = guided; p_max_stack = 4 }
      ~ctx
      ~run_mutant:(cheap_run_mutant ctx)
      ()
  in
  let random = arm false in
  let guided = arm true in
  Alcotest.(check bool) "campaign covers more than the baseline" true
    (guided.Confuzz.Loop.rs_covered > guided.Confuzz.Loop.rs_baseline_covered);
  Alcotest.(check bool)
    (Printf.sprintf "guided (%d) covers more than random (%d) at equal budget"
       guided.Confuzz.Loop.rs_covered random.Confuzz.Loop.rs_covered)
    true
    (guided.Confuzz.Loop.rs_covered > random.Confuzz.Loop.rs_covered)

let suite =
  [ ("confuzz: mutation json round-trip", `Quick, mutation_json_roundtrip);
    ("confuzz: apply_config semantics", `Quick, mutation_apply_semantics);
    ("confuzz: coverage registry", `Quick, coverage_registry);
    ("confuzz: coverage preserves results", `Quick, coverage_never_changes_results);
    ("confuzz: scenario codec", `Quick, scenario_confuzz_roundtrip);
    ("confuzz: empty stack is the unfuzzed run", `Quick, empty_stack_identity);
    ("confuzz: minimizer prunes innocent mutations", `Slow, minimize_keeps_only_faulty_mutation);
    ("confuzz: guided beats random", `Quick, guided_beats_random) ]
