(* The DiCE core: instrumented handlers vs. concrete semantics,
   property checkers, fault injection, exploration end-to-end. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let p = Bgp.Prefix.of_string_exn

(* A small deployed Internet used by most tests here. *)
let small_build () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 5) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  (graph, build)

let make_cut build =
  Snapshot.Cut.create
    ~speakers:(fun id -> Topology.Build.speaker build id)
    build.Topology.Build.net

let fast_params =
  { Dice.Explorer.default_params with
    Dice.Explorer.limits =
      { Concolic.Engine.max_inputs = 24; max_branches = 32; solver_nodes = 10_000 };
    fuzz_extra = 6;
    shadow_budget = 15_000 }

(* ------------------------------------------------------------------ *)
(* Sym_policy agrees with the concrete policy engine                   *)
(* ------------------------------------------------------------------ *)

let lazy_build = lazy (small_build ())

(* Node 1's first session: its config, the peer and the handler view
   whose field space and community universe the mirror reads. *)
let lazy_view =
  lazy
    (let _, build = Lazy.force lazy_build in
     let sp = Topology.Build.speaker build 1 in
     let cfg = sp.Bgp.Speaker.sp_config () in
     let peer = List.hd cfg.Bgp.Config.neighbors in
     (cfg, peer, Dice.Sym_handler.view_of_speaker sp ~peer:peer.Bgp.Config.addr))

(* Symbolic evaluation of [policy] over [input] against the concrete
   engine over the concretized message: same verdict, and on accept the
   same local-pref, path length and MED. *)
let sym_agrees input policy =
  let cfg, _, view = Lazy.force lazy_view in
  let ctx = Concolic.Ctx.create input in
  let sr =
    Dice.Sym_route.read ctx ~asn_lo:view.Dice.Sym_handler.sh_asn_lo
      ~asn_hi:view.Dice.Sym_handler.sh_asn_hi
      ~universe_size:(List.length view.Dice.Sym_handler.sh_universe)
  in
  let sym =
    Dice.Sym_policy.eval ctx ~own_asn:cfg.Bgp.Config.asn
      ~universe:view.Dice.Sym_handler.sh_universe policy sr
  in
  let u = Dice.Sym_handler.update_of_input view input in
  let attrs = Option.get u.Bgp.Msg.attrs in
  let prefix = List.hd u.Bgp.Msg.nlri in
  match (sym, Bgp.Policy.apply policy prefix attrs) with
  | Dice.Sym_policy.Denied, None -> true
  | Dice.Sym_policy.Accepted sr', Some attrs' ->
      Concolic.Cval.to_int sr'.Dice.Sym_route.sr_local_pref
      = Bgp.Attr.effective_local_pref attrs'
      && Concolic.Cval.to_int sr'.Dice.Sym_route.sr_path_len
         = Bgp.As_path.length attrs'.Bgp.Attr.as_path
      && Concolic.Cval.to_int sr'.Dice.Sym_route.sr_med
         = Option.value attrs'.Bgp.Attr.med ~default:0
  | Dice.Sym_policy.Denied, Some _ | Dice.Sym_policy.Accepted _, None -> false

(* Random assignments over the Sym_route field space (path length >= 2
   so the neighbor/origin split is faithful) for node 1's configured
   import map.  The map as configured is seq-sorted; the reversed copy
   is not, and both engines must walk it in list order. *)
let gen_node_map =
  let open QCheck.Gen in
  let* nlri_a = oneofl [ 0; 10; 127; 192; 203; 240 ] in
  let* nlri_b = int_bound 255 in
  let* nlri_len = int_bound 32 in
  let* origin = int_bound 2 in
  let* path_len = int_range 2 6 in
  let* origin_as = int_range 998 1012 in
  let* neighbor_as = int_range 998 1012 in
  let* contains_self = int_bound 1 in
  let* med = int_bound 300 in
  let* community = int_bound 6 in
  let cfg, peer, _ = Lazy.force lazy_view in
  let policy = Bgp.Config.import_policy cfg peer in
  return
    ( [ policy; List.rev policy ],
      [ ("nlri_a", nlri_a); ("nlri_b", nlri_b); ("nlri_len", nlri_len);
        ("origin", origin); ("path_len", path_len); ("origin_as", origin_as);
        ("neighbor_as", neighbor_as); ("contains_self", contains_self);
        ("med", med); ("community", community) ] )

(* Random unsorted maps over the clauses the mirror models exactly:
   prefix rules from /0 to /32 whose addresses carry random bits past
   /24, community clauses (in and out of the node's universe) and
   origins, with inputs drawn from the same octets.  As-path and
   next-hop clauses are left out on purpose.  The mirror abstracts a
   next hop to "never matches", and its as-path fields (length, origin,
   neighbor, contains-self) do not describe the path [update_of_input]
   builds for every combination (e.g. [Path_neighbor_is] at path
   length 1); that gap is a ROADMAP open item. *)
let gen_random_map =
  let open QCheck.Gen in
  let* universe =
    fun _ ->
      let _, _, view = Lazy.force lazy_view in
      view.Dice.Sym_handler.sh_universe
  in
  let octet_a = oneofl [ 10; 192 ] in
  let octet_b = oneofl [ 0; 2 ] in
  let octet_c = oneofl [ 2; 128 ] in
  (* Mostly lengths past /20, so rules with bits in the host octet and
     the inputs they must reject are common. *)
  let len = frequency [ (1, int_bound 32); (2, int_range 20 32) ] in
  let rule =
    let* a = octet_a and* b = octet_b and* c = octet_c and* d = int_bound 255 in
    let* len = len in
    let bound = opt (int_range len 32) in
    let* ge = bound and* le = bound in
    return
      (Bgp.Policy.prefix_rule ?ge ?le
         (Bgp.Prefix.make (Bgp.Ipv4.of_octets a b c d) len))
  in
  let clause =
    frequency
      [ (3, map (fun rs -> Bgp.Policy.Match_prefix rs) (list_size (int_range 1 2) rule));
        ( 1,
          map
            (fun c -> Bgp.Policy.Match_community c)
            (oneofl (Bgp.Community.make 65000 999 :: universe)) );
        ( 1,
          map
            (fun o -> Bgp.Policy.Match_origin o)
            (oneofl Bgp.Attr.[ Igp; Egp; Incomplete ]) ) ]
  in
  let set =
    oneof
      [ map (fun v -> Bgp.Policy.Set_local_pref v) (int_bound 1000);
        map (fun v -> Bgp.Policy.Set_med (Some v)) (int_bound 300);
        map (fun n -> Bgp.Policy.Prepend_as (65000, n)) (int_range 1 3) ]
  in
  let entry =
    let* seq = int_bound 30 in
    let* action = oneofl [ Bgp.Policy.Permit; Bgp.Policy.Deny ] in
    let* matches = list_size (int_bound 2) clause in
    let* sets = list_size (int_bound 2) set in
    return (Bgp.Policy.entry seq action ~matches ~sets)
  in
  let* policy = list_size (int_range 1 4) entry in
  let* nlri_a = octet_a and* nlri_b = octet_b and* nlri_c = octet_c in
  let* nlri_len = len in
  let* origin = int_bound 2 in
  let* path_len = int_range 2 6 in
  let* med = int_bound 300 in
  let* community = int_bound (List.length universe) in
  return
    ( [ policy ],
      [ ("nlri_a", nlri_a); ("nlri_b", nlri_b); ("nlri_c", nlri_c);
        ("nlri_len", nlri_len); ("origin", origin); ("path_len", path_len);
        ("med", med); ("community", community) ] )

let sym_policy_matches_concrete =
  QCheck.Test.make
    ~name:"sym-policy: symbolic evaluation agrees with the concrete engine" ~count:1300
    (QCheck.make
       ~print:(fun (policies, input) ->
         Format.asprintf "%a@.%s"
           (Format.pp_print_list Bgp.Policy.pp)
           policies
           (Concolic.Ctx.input_to_string input))
       (QCheck.Gen.frequency [ (1, gen_node_map); (3, gen_random_map) ]))
    (fun (policies, input) -> List.for_all (sym_agrees input) policies)

(* The mirror's fourth NLRI octet is always 0, so a rule whose set bits
   reach past /24 (192.0.2.128/25) must not match 192.0.2.0/25 or
   192.0.2.0/32, while 192.0.2.0/25 matches both. *)
let sym_policy_bits_past_24 () =
  let cfg, _, view = Lazy.force lazy_view in
  List.iter
    (fun (rule, len, expected) ->
      let input = [ ("nlri_a", 192); ("nlri_b", 0); ("nlri_c", 2); ("nlri_len", len) ] in
      let policy =
        [ Bgp.Policy.entry 10 Bgp.Policy.Permit
            ~matches:
              [ Bgp.Policy.Match_prefix [ Bgp.Policy.prefix_rule ~le:32 (p rule) ] ] ]
      in
      let ctx = Concolic.Ctx.create input in
      let sr =
        Dice.Sym_route.read ctx ~asn_lo:view.Dice.Sym_handler.sh_asn_lo
          ~asn_hi:view.Dice.Sym_handler.sh_asn_hi
          ~universe_size:(List.length view.Dice.Sym_handler.sh_universe)
      in
      let accepted =
        match
          Dice.Sym_policy.eval ctx ~own_asn:cfg.Bgp.Config.asn
            ~universe:view.Dice.Sym_handler.sh_universe policy sr
        with
        | Dice.Sym_policy.Accepted _ -> true
        | Dice.Sym_policy.Denied -> false
      in
      let what = Printf.sprintf "%s le 32 vs 192.0.2.0/%d" rule len in
      check Alcotest.bool what expected accepted;
      check Alcotest.bool (what ^ ": concrete agrees") true (sym_agrees input policy))
    [ ("192.0.2.128/25", 25, false);
      ("192.0.2.128/25", 32, false);
      ("192.0.2.0/25", 25, true);
      ("192.0.2.0/25", 32, true) ]

(* The instrumented mirror agrees with reality: its verdict about an
   input matches what the concrete pipeline does with the concretized
   bytes on a fresh clone. *)
let arb_mirror_input =
  let open QCheck.Gen in
  let gen =
    let* withdraw = frequency [ (5, return 0); (1, return 1) ] in
    let* malform = frequency [ (6, return 0); (1, return 1); (1, return 2) ] in
    let* nlri_a = oneofl [ 0; 127; 192; 203; 240 ] in
    let* nlri_b = int_bound 255 in
    let* nlri_len = int_bound 32 in
    let* origin = int_bound 3 in
    let* path_len = int_range 2 5 in
    let* origin_as = int_range 998 1012 in
    let* med = int_bound 300 in
    let* community = int_bound 6 in
    return
      [ ("withdraw", withdraw); ("malform", malform); ("nlri_a", nlri_a);
        ("nlri_b", nlri_b); ("nlri_len", nlri_len); ("origin", origin);
        ("path_len", path_len); ("origin_as", origin_as);
        ("contains_self", 0); ("med", med); ("community", community) ]
  in
  QCheck.make ~print:Concolic.Ctx.input_to_string gen

let mirror_matches_reality =
  QCheck.Test.make
    ~name:"sym-handler: mirror verdicts match the concrete pipeline" ~count:250
    arb_mirror_input
    (fun input ->
      let _, build = Lazy.force lazy_build in
      let node = 1 in
      let sp = Topology.Build.speaker build node in
      let peer = List.hd (sp.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors in
      let peer_addr = peer.Bgp.Config.addr in
      let view = Dice.Sym_handler.view_of_speaker sp ~peer:peer_addr in
      (* Fill in the peer's AS so the benign path reflects real traffic. *)
      let input = Concolic.Ctx.input_update input [ ("neighbor_as", peer.Bgp.Config.remote_as) ] in
      let verdict = Dice.Sym_handler.run view (Concolic.Ctx.create input) in
      let raw = Dice.Sym_handler.concretize view input in
      let decoded = Bgp.Wire.decode raw in
      match verdict with
      | Dice.Sym_handler.Malformed -> Result.is_error decoded
      | Dice.Sym_handler.Withdrawal _ -> (
          match decoded with
          | Ok (Bgp.Msg.Update u) -> u.Bgp.Msg.nlri = [] && u.Bgp.Msg.withdrawn <> []
          | _ -> false)
      | Dice.Sym_handler.Rejected_loop -> true (* excluded by the generator *)
      | Dice.Sym_handler.Rejected_policy | Dice.Sym_handler.Accepted _ -> (
          match decoded with
          | Error _ -> false
          | Ok (Bgp.Msg.Update u) -> (
              (* Replay on a fresh clone of the live system and inspect
                 the node's Adj-RIB-In. *)
              let cut = make_cut build in
              let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node ()) in
              let target = Snapshot.Store.touch (Snapshot.Store.clone snap) node in
              target.Bgp.Speaker.sp_process_raw
                ~from_node:(Bgp.Router.node_of_addr peer_addr) raw;
              let prefix = List.hd u.Bgp.Msg.nlri in
              let entry =
                Bgp.Rib.adj_in_get peer_addr prefix (target.Bgp.Speaker.sp_rib ())
              in
              match verdict with
              | Dice.Sym_handler.Rejected_policy -> entry = None
              | Dice.Sym_handler.Accepted _ -> entry <> None
              | _ -> false)
          | Ok _ -> false))

(* ------------------------------------------------------------------ *)
(* Sym_handler concretization                                          *)
(* ------------------------------------------------------------------ *)

let view_for_node node =
  let _, build = Lazy.force lazy_build in
  let sp = Topology.Build.speaker build node in
  let peer = List.hd (sp.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors in
  Dice.Sym_handler.view_of_speaker sp ~peer:peer.Bgp.Config.addr

let concretize_wellformed () =
  let view = view_for_node 1 in
  let raw = Dice.Sym_handler.concretize view [] in
  match Bgp.Wire.decode raw with
  | Ok (Bgp.Msg.Update u) ->
      check Alcotest.int "one nlri" 1 (List.length u.Bgp.Msg.nlri);
      Alcotest.(check bool) "attrs present" true (u.Bgp.Msg.attrs <> None)
  | Ok m -> Alcotest.failf "expected UPDATE, got %a" Bgp.Msg.pp m
  | Error e -> Alcotest.failf "benign input must decode: %a" Bgp.Wire.pp_error e

let concretize_malformed_origin () =
  let view = view_for_node 1 in
  let raw = Dice.Sym_handler.concretize view [ ("malform", 1) ] in
  match Bgp.Wire.decode raw with
  | Error e ->
      check Alcotest.int "invalid origin subcode" Bgp.Msg.Error.invalid_origin
        e.Bgp.Wire.subcode
  | Ok _ -> Alcotest.fail "malform=1 must not decode"

let concretize_malformed_length () =
  let view = view_for_node 1 in
  let raw = Dice.Sym_handler.concretize view [ ("malform", 2) ] in
  match Bgp.Wire.decode raw with
  | Error e ->
      check Alcotest.int "update-message error" Bgp.Msg.Error.update_message e.Bgp.Wire.code
  | Ok _ -> Alcotest.fail "malform=2 must not decode"

let handler_outcomes () =
  let view = view_for_node 1 in
  let run input =
    Dice.Sym_handler.run view (Concolic.Ctx.create input)
  in
  check Alcotest.string "malformed input" "malformed"
    (Dice.Sym_handler.outcome_to_string (run [ ("malform", 2) ]));
  check Alcotest.string "looped path rejected" "rejected-loop"
    (Dice.Sym_handler.outcome_to_string (run [ ("contains_self", 1) ]));
  (* A martian announcement is rejected by the import map. *)
  check Alcotest.string "martian rejected by policy" "rejected-policy"
    (Dice.Sym_handler.outcome_to_string (run [ ("nlri_a", 127); ("nlri_len", 8) ]))

(* ------------------------------------------------------------------ *)
(* Checks and ground truth                                             *)
(* ------------------------------------------------------------------ *)

let ground_truth_subsumption () =
  let graph, _ = Lazy.force lazy_build in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  check (Alcotest.option Alcotest.int) "owner of node 2's /24"
    (Some (Topology.Gao_rexford.asn_of_node 2))
    (gt.Dice.Checks.owner_of (Topology.Gao_rexford.prefix_of_node 2));
  (* More specific prefixes belong to the covering owner. *)
  let sub =
    Bgp.Prefix.make (Bgp.Prefix.addr (Topology.Gao_rexford.prefix_of_node 2)) 28
  in
  check (Alcotest.option Alcotest.int) "sub-prefix same owner"
    (Some (Topology.Gao_rexford.asn_of_node 2))
    (gt.Dice.Checks.owner_of sub);
  check (Alcotest.option Alcotest.int) "unowned space" None
    (gt.Dice.Checks.owner_of (p "8.8.8.0/24"));
  (* Covering an owned /24 is not owning it. *)
  check (Alcotest.option Alcotest.int) "shorter than the owned /24" None
    (gt.Dice.Checks.owner_of
       (Bgp.Prefix.make (Bgp.Prefix.addr (Topology.Gao_rexford.prefix_of_node 2)) 23));
  check (Alcotest.option Alcotest.int) "martian space" None
    (gt.Dice.Checks.owner_of (p "127.0.0.0/8"))

(* The registry as it was before the trie: the first node, in id order,
   whose /24 subsumes the prefix. *)
let owner_by_scan graph prefix =
  List.find_map
    (fun id ->
      if Bgp.Prefix.subsumes (Topology.Gao_rexford.prefix_of_node id) prefix then
        Some (Topology.Gao_rexford.asn_of_node id)
      else None)
    (Topology.Graph.node_ids graph)

(* Prefixes of every length 0-32 inside owned /24s, in 192.x.y.0/24
   space nobody owns, in martian space and anywhere at all, over the
   demo27, gadget and random graphs. *)
let registry_trie_matches_scan =
  let graphs =
    [| ("demo27", Topology.Demo27.graph);
       ("bad-gadget", Topology.Gadget.bad_gadget ());
       ("embedded-gadget", Topology.Gadget.embedded ());
       ("random", fst (Lazy.force lazy_build));
       ("gr250", Topology.Gao_rexford.scale_graph ~nodes:250 ~seed:42) |]
  in
  let gts = Array.map (fun (_, g) -> Dice.Checks.ground_truth_of_graph g) graphs in
  let gen =
    let open QCheck.Gen in
    let* g = int_bound (Array.length graphs - 1) in
    let* addr =
      oneof
        [ map3 (fun b c d -> Bgp.Ipv4.of_octets 192 b c d) (int_bound 1) (int_bound 255)
            (int_bound 255);
          map3 (fun b c d -> Bgp.Ipv4.of_octets 192 b c d) (int_bound 255)
            (int_bound 255) (int_bound 255);
          map3
            (fun a b c -> Bgp.Ipv4.of_octets a b c 0)
            (oneofl [ 0; 10; 127; 169; 172; 224; 240; 255 ])
            (int_bound 255) (int_bound 255);
          map (fun x -> Bgp.Ipv4.of_int32_exn x) (int_bound 0xFFFF_FFFF) ]
    in
    let* len = int_range 0 32 in
    return (g, Bgp.Prefix.make addr len)
  in
  QCheck.Test.make ~count:2_000 ~name:"checks: registry trie agrees with the first-match scan"
    (QCheck.make
       ~print:(fun (g, pfx) -> fst graphs.(g) ^ " " ^ Bgp.Prefix.to_string pfx)
       gen)
    (fun (g, pfx) ->
      gts.(g).Dice.Checks.owner_of pfx = owner_by_scan (snd graphs.(g)) pfx)

let checks_clean_on_healthy_system () =
  let graph, build = Lazy.force lazy_build in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cut = make_cut build in
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()) in
  let shadow = Snapshot.Store.spawn snap in
  ignore (Snapshot.Store.run_to_quiescence shadow.Snapshot.Store.sh_clone);
  List.iter
    (fun (c : Dice.Checks.checker) ->
      List.iter
        (fun (v : Dice.Checks.verdict) ->
          if not v.Dice.Checks.v_ok then
            Alcotest.failf "healthy system violates %s at node %d: %s"
              v.Dice.Checks.v_property v.Dice.Checks.v_node v.Dice.Checks.v_evidence)
        (c.Dice.Checks.run shadow))
    (Dice.Checks.standard_suite gt)

let privacy_digest_opacity () =
  let d =
    Dice.Privacy.digest ~node:3 ~property:"origin-authenticity" ~ok:false
      ~evidence:"192.0.2.0/24 originated by AS1009"
  in
  Alcotest.(check bool) "violated recorded" false d.Dice.Privacy.d_ok;
  Alcotest.(check bool) "contract" true
    (Dice.Privacy.leaks_nothing d "192.0.2.0/24 originated by AS1009");
  Alcotest.(check bool) "text a field holds is seen" false
    (Dice.Privacy.leaks_nothing d "origin-authenticity");
  let agg = Dice.Privacy.aggregate [ d ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "aggregate lists violation" [ (3, "origin-authenticity") ] agg.Dice.Privacy.violations;
  Alcotest.(check bool) "not all ok" false (Dice.Privacy.all_ok agg)

let fault_dedupe () =
  let at = Netsim.Time.zero in
  let f1 = Dice.Fault.make ~at ~node:1 ~property:"x" Dice.Fault.Operator_mistake "a" in
  let f2 = Dice.Fault.make ~at ~node:1 ~property:"x" Dice.Fault.Operator_mistake "b" in
  let f3 = Dice.Fault.make ~at ~node:2 ~property:"x" Dice.Fault.Operator_mistake "c" in
  check Alcotest.int "dedupes same root" 2 (List.length (Dice.Fault.dedupe [ f1; f2; f3 ]))

(* ------------------------------------------------------------------ *)
(* Injection scenarios                                                 *)
(* ------------------------------------------------------------------ *)

let inject_validation () =
  let _, build = Lazy.force lazy_build in
  Alcotest.(check bool) "non-peer cycle rejected" true
    (try
       Dice.Inject.apply build
         (Dice.Inject.Policy_dispute { cycle = [ 0; 1; 2 ]; victim = 3 });
       false
     with Invalid_argument _ -> true);
  check Alcotest.string "class of hijack" "operator-mistake"
    (Dice.Fault.class_to_string
       (Dice.Inject.fault_class (Dice.Inject.Prefix_hijack { at = 1; victim = 2 })));
  check Alcotest.string "class of dispute" "policy-conflict"
    (Dice.Fault.class_to_string
       (Dice.Inject.fault_class (Dice.Inject.Policy_dispute { cycle = []; victim = 0 })));
  check Alcotest.string "class of bug" "programming-error"
    (Dice.Fault.class_to_string
       (Dice.Inject.fault_class (Dice.Inject.Loop_check_bug { at = 0 })))

(* ------------------------------------------------------------------ *)
(* End-to-end detections (fast parameters)                             *)
(* ------------------------------------------------------------------ *)

(* [run ~until] ends on the detecting round: [first_detection] must
   name the last round run, whose exploration is returned.  [None] when
   the cap — two passes over the explorer nodes — ran out first. *)
let detecting_round ?params ?nodes ~build ~gt cls =
  let n =
    match nodes with
    | Some l -> List.length l
    | None -> Topology.Graph.size build.Topology.Build.graph
  in
  let s =
    Dice.Orchestrator.run ?params ?nodes ~until:cls ~build ~gt ~rounds:(2 * n) ()
  in
  match List.find_opt (fun (c, _, _) -> c = cls) s.Dice.Orchestrator.first_detection with
  | None -> None
  | Some (_, _, r) ->
      let rounds = s.Dice.Orchestrator.rounds in
      check Alcotest.int "detecting round is the last one run" (List.length rounds) r;
      Dice.Orchestrator.round_exploration (List.nth rounds (r - 1))

let has_property name (x : Dice.Explorer.exploration) =
  List.exists
    (fun (f : Dice.Fault.t) -> String.equal f.Dice.Fault.f_property name)
    x.Dice.Explorer.x_faults

let detects_hijack () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 9) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = 5; victim = 4 });
  Topology.Build.run_for build (Netsim.Time.span_sec 30.);
  let hit =
    detecting_round ~params:fast_params ~build ~gt Dice.Fault.Operator_mistake
  in
  Alcotest.(check bool) "hijack detected" true (hit <> None)

let detects_build_fresh () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 13) in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  (graph, build)

let detects_crash_bug () =
  let graph, build = detects_build_fresh () in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let poison = Bgp.Community.make 64111 1 in
  Dice.Inject.apply build (Dice.Inject.Crash_bug { at = 1; community = poison });
  match
    detecting_round ~params:fast_params ~build ~gt ~nodes:[ 1 ]
      Dice.Fault.Programming_error
  with
  | Some x ->
      Alcotest.(check bool) "crash property named" true (has_property "handler-crash" x)
  | None -> Alcotest.fail "crash bug not detected"

let detects_loop_bug () =
  let graph, build = detects_build_fresh () in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build (Dice.Inject.Loop_check_bug { at = 1 });
  match
    detecting_round ~params:fast_params ~build ~gt ~nodes:[ 1 ]
      Dice.Fault.Programming_error
  with
  | Some x ->
      Alcotest.(check bool) "loop property named" true
        (has_property "no-own-as-in-path" x)
  | None -> Alcotest.fail "loop bug not detected"

let detects_dispute_wheel () =
  let graph = Topology.Gadget.bad_gadget () in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build
    (Dice.Inject.Policy_dispute
       { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
  Topology.Build.run_for build (Netsim.Time.span_sec 5.);
  let hit =
    detecting_round ~params:fast_params ~build ~gt ~nodes:Topology.Gadget.wheel
      Dice.Fault.Policy_conflict
  in
  Alcotest.(check bool) "oscillation detected" true (hit <> None)

let no_false_positives_on_healthy_system () =
  let graph, build = detects_build_fresh () in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let summary =
    Dice.Orchestrator.run ~params:fast_params ~build ~gt ~rounds:3 ()
  in
  check (Alcotest.list Alcotest.string) "no faults reported" []
    (List.map
       (fun (f : Dice.Fault.t) -> Format.asprintf "%a" Dice.Fault.pp f)
       summary.Dice.Orchestrator.faults)

(* The stop rule is a cut of the one loop, nothing more: on fresh,
   identically seeded deployments, [run ~until:c ~rounds:k] is the
   prefix of [run ~rounds:k] up to and including the first round that
   reports [c]. *)
let stop_rule_is_a_prefix () =
  let deploy ~seed inject =
    let params =
      { Topology.Generate.default_params with n_tier1 = 1; n_transit = 3; n_stub = 5 }
    in
    let graph = Topology.Generate.generate ~params (Netsim.Rng.create seed) in
    let build = Topology.Build.deploy graph in
    Topology.Build.start_all build;
    assert (Topology.Build.converge build);
    Option.iter (Dice.Inject.apply build) inject;
    Topology.Build.run_for build (Netsim.Time.span_sec 10.);
    (build, Dice.Checks.ground_truth_of_graph graph)
  in
  let round_view (r : Dice.Orchestrator.round) =
    ( r.Dice.Orchestrator.rd_node,
      Format.asprintf "%a" Dice.Orchestrator.pp_outcome r.Dice.Orchestrator.rd_outcome,
      match Dice.Orchestrator.round_exploration r with
      | None -> (0, [])
      | Some x ->
          ( x.Dice.Explorer.x_inputs,
            List.map (Format.asprintf "%a" Dice.Fault.pp) x.Dice.Explorer.x_faults ) )
  in
  let rounds_t =
    Alcotest.(list (triple int string (pair int (list string))))
  in
  let detection cls (s : Dice.Orchestrator.summary) =
    List.find_opt (fun (c, _, _) -> c = cls) s.Dice.Orchestrator.first_detection
    |> Option.map (fun (_, t, r) -> (Netsim.Time.to_us t, r))
  in
  let compare_runs ~name ~seed ~inject ~cls ~k ~expect_rounds =
    let build, gt = deploy ~seed inject in
    let stopped = Dice.Orchestrator.run ~until:cls ~build ~gt ~rounds:k () in
    let build, gt = deploy ~seed inject in
    let full = Dice.Orchestrator.run ~build ~gt ~rounds:k () in
    let n = List.length stopped.Dice.Orchestrator.rounds in
    check Alcotest.int (name ^ ": rounds run") expect_rounds n;
    check rounds_t (name ^ ": prefix of the full run")
      (List.map round_view (List.filteri (fun i _ -> i < n) full.Dice.Orchestrator.rounds))
      (List.map round_view stopped.Dice.Orchestrator.rounds);
    check
      Alcotest.(option (pair int int))
      (name ^ ": first detection") (detection cls full) (detection cls stopped)
  in
  compare_runs ~name:"loop-check" ~seed:13
    ~inject:(Some (Dice.Inject.Loop_check_bug { at = 2 }))
    ~cls:Dice.Fault.Programming_error ~k:9 ~expect_rounds:3;
  compare_runs ~name:"healthy" ~seed:13 ~inject:None ~cls:Dice.Fault.Programming_error
    ~k:9 ~expect_rounds:9

(* An empty explorer list cannot be scheduled: refuse it up front
   instead of dividing by zero in the round-robin. *)
let run_rejects_empty_node_list () =
  let graph, build = detects_build_fresh () in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Alcotest.check_raises "rounds over no nodes"
    (Invalid_argument "Orchestrator.run: empty node list") (fun () ->
      ignore (Dice.Orchestrator.run ~build ~gt ~nodes:[] ~rounds:1 ()));
  Alcotest.check_raises "until over no nodes"
    (Invalid_argument "Orchestrator.run: empty node list") (fun () ->
      ignore
        (Dice.Orchestrator.run ~build ~gt ~nodes:[] ~until:Dice.Fault.Operator_mistake
           ~rounds:1 ()));
  check Alcotest.int "zero rounds over no nodes is empty" 0
    (List.length
       (Dice.Orchestrator.run ~build ~gt ~nodes:[] ~rounds:0 ()).Dice.Orchestrator.rounds)

let exploration_metrics_consistent () =
  let graph, build = detects_build_fresh () in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cut = make_cut build in
  let x = Dice.Explorer.explore_node ~params:fast_params ~build ~cut ~gt ~node:0 () in
  Alcotest.(check bool) "ran inputs" true (x.Dice.Explorer.x_inputs > 0);
  Alcotest.(check bool) "paths bounded by inputs" true
    (x.Dice.Explorer.x_distinct_paths <= x.Dice.Explorer.x_inputs);
  Alcotest.(check bool) "shadows cover concolic + fuzz" true
    (x.Dice.Explorer.x_shadow_runs >= x.Dice.Explorer.x_inputs);
  check Alcotest.int "snapshot covered all nodes" 6
    (List.length x.Dice.Explorer.x_snapshot.Snapshot.Cut.checkpoints)

(* ------------------------------------------------------------------ *)
(* The derivation memo                                                 *)
(* ------------------------------------------------------------------ *)

(* An exploration and the [derivation] attribute of each of its [peer]
   spans. *)
let explore_tagged ~build ~cut ~gt ~node =
  let sink = Telemetry.Sink.memory () in
  Telemetry.set_sink sink;
  let params = { fast_params with Dice.Explorer.peers_per_node = 3 } in
  let x =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_sink Telemetry.Sink.noop)
      (fun () -> Dice.Explorer.explore_node ~params ~build ~cut ~gt ~node ())
  in
  let tags =
    List.filter_map
      (function
        | _, Telemetry.Sink.Span_end { attrs; _ } -> (
            match List.assoc_opt "derivation" attrs with
            | Some (Telemetry.Json.String tag) -> Some tag
            | Some _ | None -> None)
        | _ -> None)
      (Telemetry.Sink.events sink)
  in
  (x, tags)

(* Everything an exploration reports but its snapshot and wall time. *)
let same_exploration what (a : Dice.Explorer.exploration) (b : Dice.Explorer.exploration) =
  let pp_faults x = List.map (Format.asprintf "%a" Dice.Fault.pp) x.Dice.Explorer.x_faults in
  check Alcotest.(list string) (what ^ ": faults") (pp_faults b) (pp_faults a);
  Alcotest.(check bool) (what ^ ": fault inputs") true
    (a.Dice.Explorer.x_faults = b.Dice.Explorer.x_faults);
  Alcotest.(check bool) (what ^ ": digests") true
    (List.concat a.Dice.Explorer.x_digests = List.concat b.Dice.Explorer.x_digests);
  List.iter
    (fun (field, f) -> check Alcotest.int (what ^ ": " ^ field) (f b) (f a))
    [ ("inputs", fun x -> x.Dice.Explorer.x_inputs);
      ("paths", fun x -> x.Dice.Explorer.x_distinct_paths);
      ("crashes", fun x -> x.Dice.Explorer.x_crashes);
      ("shadow runs", fun x -> x.Dice.Explorer.x_shadow_runs) ]

(* Two identical gadget deployments explore wheel node 1 over its three
   sessions after the same changes: [a] always under one ground truth,
   whose derivation memo is warm, [b] under a fresh one each time.  An
   unchanged view is served from the memo; after a bug flag, a Loc-RIB
   or a config changes at the node, every session derives afresh.
   Either way [a] finds what [b] finds. *)
let derivation_memo_differential () =
  let deploy () =
    let graph = Topology.Gadget.bad_gadget () in
    let build = Topology.Build.deploy graph in
    Topology.Build.start_all build;
    assert (Topology.Build.converge build);
    (graph, build, make_cut build)
  in
  let graph, build_a, cut_a = deploy () in
  let _, build_b, cut_b = deploy () in
  let gt_a = Dice.Checks.ground_truth_of_graph graph in
  let node = 1 in
  let step what ~expect change =
    List.iter
      (fun build ->
        change build;
        Topology.Build.run_for build (Netsim.Time.span_sec 5.))
      [ build_a; build_b ];
    let a, tags = explore_tagged ~build:build_a ~cut:cut_a ~gt:gt_a ~node in
    let b, _ =
      explore_tagged ~build:build_b ~cut:cut_b
        ~gt:(Dice.Checks.ground_truth_of_graph graph) ~node
    in
    check Alcotest.(list string) (what ^ ": derivations") [ expect; expect; expect ] tags;
    same_exploration what a b;
    a
  in
  ignore (step "first cut" ~expect:"fresh" ignore);
  ignore (step "unchanged" ~expect:"memo" ignore);
  let poison = Bgp.Community.make 64111 1 in
  let crashed =
    step "crash bug" ~expect:"fresh" (fun build ->
        Dice.Inject.apply build (Dice.Inject.Crash_bug { at = node; community = poison }))
  in
  Alcotest.(check bool) "crash bug detected" true (has_property "handler-crash" crashed);
  ignore (step "crash bug, unchanged" ~expect:"memo" ignore);
  (* A new route reaches the node: its Loc-RIB changes, its config does
     not. *)
  let fresh_prefix = Topology.Gao_rexford.prefix_of_node 40 in
  ignore
    (step "route change" ~expect:"fresh" (fun build ->
         let sp = Topology.Build.speaker build Topology.Gadget.victim in
         let cfg = sp.Bgp.Speaker.sp_config () in
         sp.Bgp.Speaker.sp_set_config
           { cfg with Bgp.Config.networks = cfg.Bgp.Config.networks @ [ fresh_prefix ] }));
  Alcotest.(check bool) "the route reached the node" true
    (Option.is_some
       (Bgp.Prefix_trie.find fresh_prefix
          (Bgp.Speaker.loc_rib (Topology.Build.speaker build_a node))));
  (* A dispute wheel over a prefix nobody announces changes the node's
     config and leaves its Loc-RIB as it was; then one over the
     victim's prefix changes both. *)
  let loc_rib () = Bgp.Speaker.loc_rib (Topology.Build.speaker build_a node) in
  let before = loc_rib () in
  let dispute victim build =
    Dice.Inject.apply build (Dice.Inject.Policy_dispute { cycle = Topology.Gadget.wheel; victim })
  in
  ignore (step "config change" ~expect:"fresh" (dispute 41));
  Alcotest.(check bool) "the Loc-RIB stayed as it was" true (loc_rib () == before);
  ignore (step "policy dispute" ~expect:"fresh" (dispute Topology.Gadget.victim))

let suite =
  [ qtest sym_policy_matches_concrete;
    ("sym-policy: rule bits past /24 decide", `Quick, sym_policy_bits_past_24);
    qtest mirror_matches_reality;
    ("sym-handler: benign concretization decodes", `Quick, concretize_wellformed);
    ("sym-handler: malformed origin byte", `Quick, concretize_malformed_origin);
    ("sym-handler: malformed attribute length", `Quick, concretize_malformed_length);
    ("sym-handler: outcome paths", `Quick, handler_outcomes);
    ("checks: ground truth subsumption", `Quick, ground_truth_subsumption);
    qtest registry_trie_matches_scan;
    ("checks: healthy system is clean", `Quick, checks_clean_on_healthy_system);
    ("privacy: digest opacity and aggregation", `Quick, privacy_digest_opacity);
    ("fault: dedupe", `Quick, fault_dedupe);
    ("inject: validation and classes", `Quick, inject_validation);
    ("e2e: detects prefix hijack", `Slow, detects_hijack);
    ("e2e: detects crash bug", `Slow, detects_crash_bug);
    ("e2e: detects loop-check bug", `Slow, detects_loop_bug);
    ("e2e: detects dispute wheel", `Slow, detects_dispute_wheel);
    ("e2e: no false positives when healthy", `Slow, no_false_positives_on_healthy_system);
    ("orchestrator: until is a prefix of the full run", `Slow, stop_rule_is_a_prefix);
    ("orchestrator: empty node list rejected", `Quick, run_rejects_empty_node_list);
    ("explorer: metrics consistency", `Quick, exploration_metrics_consistent);
    ("explorer: derivation memo agrees with a fresh ground truth", `Quick,
     derivation_memo_differential) ]
