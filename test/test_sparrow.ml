(* Heterogeneity: the Sparrow implementation, alone and in mixed
   deployments with the bird-like reference implementation. *)

let check = Alcotest.check

let p = Bgp.Prefix.of_string_exn

(* A line of n ASes; [sparrow_nodes] run the second implementation. *)
let deploy_line ?(sparrow_nodes = []) n =
  let nodes =
    List.init n (fun i ->
        (i, if i = 0 then Topology.Graph.Tier1 else Topology.Graph.Transit))
  in
  let edges =
    List.init (n - 1) (fun i ->
        { Topology.Graph.a = i + 1; b = i; rel = Topology.Graph.Customer_provider })
  in
  let g = Topology.Graph.make ~nodes ~edges in
  let build = Topology.Build.deploy ~sparrow_nodes g in
  Topology.Build.start_all build;
  (g, build)

let sparrow_pair_converges () =
  let _, build = deploy_line ~sparrow_nodes:[ 0; 1 ] 2 in
  Alcotest.(check bool) "converges" true (Topology.Build.converge build);
  check Alcotest.int "both learn both prefixes" 4 (Topology.Build.total_loc_routes build);
  check Alcotest.int "sessions up" 2 (Topology.Build.established_sessions build)

let mixed_chain_converges () =
  let _, build = deploy_line ~sparrow_nodes:[ 1; 3 ] 5 in
  Alcotest.(check bool) "converges" true (Topology.Build.converge build);
  check Alcotest.int "full reachability" 25 (Topology.Build.total_loc_routes build);
  List.iter
    (fun (id, sp) ->
      check Alcotest.string
        (Printf.sprintf "node %d implementation" id)
        (if List.mem id [ 1; 3 ] then "sparrow" else "bird-like")
        sp.Bgp.Speaker.sp_impl)
    build.Topology.Build.speakers

let mixed_withdrawal_propagates () =
  let _, build = deploy_line ~sparrow_nodes:[ 1; 3 ] 5 in
  assert (Topology.Build.converge build);
  (* Withdraw the far end's prefix; it crosses both implementations. *)
  let sp4 = Topology.Build.speaker build 4 in
  let cfg = sp4.Bgp.Speaker.sp_config () in
  sp4.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
  assert (Topology.Build.converge build);
  let sp0 = Topology.Build.speaker build 0 in
  Alcotest.(check bool) "withdrawal crossed a sparrow hop" false
    (Bgp.Prefix_trie.mem (Topology.Gao_rexford.prefix_of_node 4) (Bgp.Speaker.loc_rib sp0))

(* The network dropped at a Sparrow node: Sparrow must reselect the
   networks its old config had, not only the new config's. *)
let mixed_withdrawal_from_sparrow () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  let sp1 = Topology.Build.speaker build 1 in
  let cfg = sp1.Bgp.Speaker.sp_config () in
  sp1.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
  assert (Topology.Build.converge build);
  let dropped = Topology.Gao_rexford.prefix_of_node 1 in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d withdrew %s" id (Bgp.Prefix.to_string dropped))
        false
        (Bgp.Prefix_trie.mem dropped (Bgp.Speaker.loc_rib (Topology.Build.speaker build id))))
    [ 0; 1; 2 ]

(* Node 1 of a 0 - 1 - 2 line drops neighbor 2 from its config and
   the network runs on, past Router's restart delay and the hold time.
   Returns node 1's established peers at once and after the run, and
   whether nodes 0 and 1 still select node 2's prefix. *)
let remove_neighbor_on_line ~sparrow_nodes =
  let _, build = deploy_line ~sparrow_nodes 3 in
  assert (Topology.Build.converge build);
  let sp1 = Topology.Build.speaker build 1 in
  let cfg = sp1.Bgp.Speaker.sp_config () in
  let gone = Bgp.Router.addr_of_node 2 in
  sp1.Bgp.Speaker.sp_set_config
    { cfg with
      Bgp.Config.neighbors =
        List.filter
          (fun (n : Bgp.Config.neighbor) -> not (Bgp.Ipv4.equal n.Bgp.Config.addr gone))
          cfg.Bgp.Config.neighbors };
  let established () =
    List.map Bgp.Router.node_of_addr (sp1.Bgp.Speaker.sp_established ())
  in
  let at_once = established () in
  Topology.Build.run_for build (Netsim.Time.span_sec 300.);
  let far = Topology.Gao_rexford.prefix_of_node 2 in
  ( at_once,
    established (),
    List.map
      (fun id ->
        Bgp.Prefix_trie.mem far (Bgp.Speaker.loc_rib (Topology.Build.speaker build id)))
      [ 0; 1 ] )

let neighbor_removal_matches_router () =
  let expected = ([ 0 ], [ 0 ], [ false; false ]) in
  let outcome = Alcotest.(triple (list int) (list int) (list bool)) in
  check outcome "all Routers: session stopped, routes gone" expected
    (remove_neighbor_on_line ~sparrow_nodes:[]);
  check outcome "Sparrow at node 1: the same" expected
    (remove_neighbor_on_line ~sparrow_nodes:[ 1 ])

let mixed_demo27_converges () =
  let graph = Topology.Demo27.graph in
  (* Run every third AS on Sparrow. *)
  let sparrow_nodes = List.filter (fun i -> i mod 3 = 1) (Topology.Graph.node_ids graph) in
  let build = Topology.Build.deploy ~sparrow_nodes graph in
  Topology.Build.start_all build;
  Alcotest.(check bool) "mixed 27-AS deployment converges" true
    (Topology.Build.converge build);
  check Alcotest.int "full reachability" (27 * 27) (Topology.Build.total_loc_routes build)

(* A corrupted UPDATE that still frames correctly: the bad byte is the
   ORIGIN value, a path-attribute error (RFC 7606 territory). *)
let corrupt_origin_update () =
  let attrs =
    Bgp.Attr.make ~origin:Bgp.Attr.Igp
      ~as_path:[ Bgp.As_path.Seq [ Topology.Gao_rexford.asn_of_node 0 ] ]
      ~next_hop:(Bgp.Router.addr_of_node 0) ()
  in
  let raw =
    Bgp.Wire.encode
      (Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [ p "203.0.113.0/24" ] })
  in
  let b = Bytes.of_string raw in
  Bytes.set b 26 '\xee';
  Bytes.to_string b

let sparrow_treats_malformed_as_withdraw () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 2 in
  assert (Topology.Build.converge build);
  let sp1 = Topology.Build.speaker build 1 in
  (* Attribute error on a live session: Sparrow must withdraw the NLRI
     and keep the session, like the reference implementation. *)
  sp1.Bgp.Speaker.sp_process_raw ~from_node:0 (corrupt_origin_update ());
  check Alcotest.int "treat-as-withdraw counted" 1
    (Netsim.Stats.get (sp1.Bgp.Speaker.sp_stats ()) "rx_treat_as_withdraw");
  check Alcotest.int "not counted as malformed" 0
    (Netsim.Stats.get (sp1.Bgp.Speaker.sp_stats ()) "rx_malformed");
  check (Alcotest.list Alcotest.int) "session survives" [ 0 ]
    (List.map Bgp.Router.node_of_addr (sp1.Bgp.Speaker.sp_established ()))

let sparrow_corrupt_header_drops_session () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 2 in
  assert (Topology.Build.converge build);
  let sp1 = Topology.Build.speaker build 1 in
  (* Header corruption cannot be localized to an attribute: Sparrow
     answers with a NOTIFICATION and drops the session. *)
  let b = Bytes.of_string (corrupt_origin_update ()) in
  Bytes.set b 0 '\x00' (* break the marker *);
  sp1.Bgp.Speaker.sp_process_raw ~from_node:0 (Bytes.to_string b);
  check Alcotest.int "malformed counted" 1
    (Netsim.Stats.get (sp1.Bgp.Speaker.sp_stats ()) "rx_malformed");
  check (Alcotest.list Alcotest.int) "session dropped" []
    (List.map Bgp.Router.node_of_addr (sp1.Bgp.Speaker.sp_established ()))

let sparrow_capture_respawn () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  let sp1 = Topology.Build.speaker build 1 in
  let capture = Bgp.Speaker.capture sp1 in
  check Alcotest.string "impl recorded" "sparrow" capture.Bgp.Speaker.cap_impl;
  Alcotest.(check bool) "route count positive" true
    (Snapshot.Checkpoint.route_count (Snapshot.Checkpoint.take ~at:Netsim.Time.zero sp1) > 0);
  (* Respawn on an isolated net and compare Loc-RIBs. *)
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1; 2 ]
         ~channels:[ (0, 1); (1, 0); (1, 2); (2, 1) ])
      (fun _ ~src:_ _ -> ())
  in
  let clone = capture.Bgp.Speaker.cap_respawn ~net ~bugs:Bgp.Router.no_bugs in
  Alcotest.(check bool) "same Loc-RIB" true
    (Bgp.Prefix_trie.bindings (Bgp.Speaker.loc_rib clone)
    = Bgp.Prefix_trie.bindings (Bgp.Speaker.loc_rib sp1))

(* What a capture answers without a respawn is what a respawn answers
   before it handles anything, for either implementation. *)
let capture_reads_as_respawn () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  List.iter
    (fun id ->
      let sp = Topology.Build.speaker build id in
      let what = Printf.sprintf "node %d (%s)" id sp.Bgp.Speaker.sp_impl in
      let cap = Bgp.Speaker.capture sp in
      let rib = cap.Bgp.Speaker.cap_rib in
      Alcotest.(check bool) (what ^ ": tables non-empty") true
        (Bgp.Rib.loc_cardinal rib > 0 && Bgp.Rib.total_adj_in rib > 0
        && not (Bgp.Ipv4.Map.is_empty rib.Bgp.Rib.adj_out));
      let eng = Netsim.Engine.create () in
      let net =
        Netsim.Network.create eng
          (Netsim.Network.make_topology ~nodes:[ 0; 1; 2 ] ~channels:[])
          (fun _ ~src:_ _ -> ())
      in
      let respawn = cap.Bgp.Speaker.cap_respawn ~net ~bugs:cap.Bgp.Speaker.cap_bugs in
      Alcotest.(check bool) (what ^ ": cap_rib is the respawn's sp_rib") true
        (rib == respawn.Bgp.Speaker.sp_rib ());
      check Alcotest.string (what ^ ": cap_digest is the respawn's sp_digest")
        (Digest.to_hex (respawn.Bgp.Speaker.sp_digest ()))
        (Digest.to_hex (cap.Bgp.Speaker.cap_digest ()));
      List.iter
        (fun (n : Bgp.Config.neighbor) ->
          let peer = n.Bgp.Config.addr in
          Alcotest.(check bool)
            (Printf.sprintf "%s: view of the capture, peer %s" what (Bgp.Ipv4.to_string peer))
            true
            (Dice.Sym_handler.view_of_capture cap ~peer
            = Dice.Sym_handler.view_of_speaker respawn ~peer))
        cap.Bgp.Speaker.cap_config.Bgp.Config.neighbors)
    [ 0; 1 ]

let sparrow_decision_matches_spec () =
  (* The independently written decision logic agrees with the reference
     decision process on a converged mixed deployment. *)
  let graph = Topology.Gadget.embedded () in
  let sparrow_nodes = [ 0; 2; 5; 8 ] in
  let build = Topology.Build.deploy ~sparrow_nodes graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()) in
  let shadow = Snapshot.Store.spawn snap in
  ignore (Snapshot.Store.run_to_quiescence shadow.Snapshot.Store.sh_clone);
  List.iter
    (fun (c : Dice.Checks.checker) ->
      List.iter
        (fun (v : Dice.Checks.verdict) ->
          if not v.Dice.Checks.v_ok then
            Alcotest.failf "mixed healthy system violates %s at node %d: %s"
              v.Dice.Checks.v_property v.Dice.Checks.v_node v.Dice.Checks.v_evidence)
        (c.Dice.Checks.run shadow))
    (Dice.Checks.standard_suite gt);
  ignore gt

let heterogeneous_shadow_preserves_impls () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()) in
  let shadow = Snapshot.Store.spawn snap in
  List.iter
    (fun (id, sp) ->
      check Alcotest.string
        (Printf.sprintf "clone %d keeps its implementation" id)
        (if id = 1 then "sparrow" else "bird-like")
        sp.Bgp.Speaker.sp_impl)
    shadow.Snapshot.Store.sh_speakers

let dice_detects_sparrow_crash () =
  let params =
    { Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
  in
  let graph = Topology.Generate.generate ~params (Netsim.Rng.create 31) in
  let build = Topology.Build.deploy ~sparrow_nodes:[ 1 ] graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  Dice.Inject.apply build
    (Dice.Inject.Crash_bug { at = 1; community = Bgp.Community.make 64998 7 });
  match
    Test_dice.detecting_round ~build ~gt ~nodes:[ 1 ] Dice.Fault.Programming_error
  with
  | Some x ->
      Alcotest.(check bool) "sparrow crash found by exploration" true
        (Test_dice.has_property "handler-crash" x)
  | None -> Alcotest.fail "sparrow crash bug not detected"

(* Differential property: Sparrow's independently written selection
   logic agrees with the reference decision process on random
   candidate sets. *)
let arb_announcements =
  let open QCheck.Gen in
  let attrs =
    let* lp = opt (int_range 50 300) in
    let* path = list_size (int_range 1 4) (int_range 64000 64010) in
    let* origin = oneofl [ Bgp.Attr.Igp; Bgp.Attr.Egp; Bgp.Attr.Incomplete ] in
    let* med = opt (int_bound 500) in
    return (lp, path, origin, med)
  in
  let event =
    let* peer = int_bound 2 in
    let* withdraw = frequency [ (4, return false); (1, return true) ] in
    let* a = attrs in
    return (peer, withdraw, a)
  in
  QCheck.make
    ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs))
    (list_size (int_range 1 12) event)

let sparrow_selection_spec =
  QCheck.Test.make ~name:"sparrow: selection agrees with the reference decision process"
    ~count:200 arb_announcements
    (fun events ->
      let eng = Netsim.Engine.create () in
      let net =
        Netsim.Network.create eng
          (Netsim.Network.make_topology ~nodes:[ 0; 1; 2; 3 ]
             ~channels:(List.concat_map (fun i -> [ (0, i); (i, 0) ]) [ 1; 2; 3 ]))
          (fun _ ~src:_ _ -> ())
      in
      let cfg =
        Bgp.Config.make ~asn:65100 ~router_id:(Bgp.Router.addr_of_node 0)
          ~neighbors:
            (List.map
               (fun i ->
                 Bgp.Config.neighbor (Bgp.Router.addr_of_node i) ~remote_as:(64000 + i))
               [ 1; 2; 3 ])
          ()
      in
      let s = Bgp.Sparrow.create ~net ~node:0 cfg in
      let prefix = p "203.0.113.0/24" in
      List.iter
        (fun (peer, withdraw, (lp, path, origin, med)) ->
          let from = Bgp.Router.addr_of_node (peer + 1) in
          if withdraw then
            Bgp.Sparrow.inject_update s ~from
              { Bgp.Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] }
          else
            Bgp.Sparrow.inject_update s ~from
              { Bgp.Msg.withdrawn = [];
                attrs =
                  Some
                    (Bgp.Attr.make ~origin ~as_path:[ Bgp.As_path.Seq path ] ~med
                       ~local_pref:lp ~next_hop:from ());
                nlri = [ prefix ] })
        events;
      let rib = Bgp.Sparrow.rib_view s in
      let candidates =
        Bgp.Rib.candidates prefix rib
        |> List.filter (Bgp.Decision.acceptable ~local_as:65100)
      in
      let reference = Bgp.Decision.best Bgp.Decision.default_config candidates in
      let actual = Bgp.Rib.loc_get prefix rib in
      reference = actual)

let sparrow_hold_reaps_dead_neighbor () =
  (* 0 (bird) — 1 (sparrow) — 2 (bird); node 2 dies silently.  Sparrow
     has no FSM hold timer of its own design, so this exercises the
     watchdog added for churn. *)
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  let sp0 = Topology.Build.speaker build 0 in
  let sp1 = Topology.Build.speaker build 1 in
  Netsim.Network.set_node_down build.Topology.Build.net 2;
  Topology.Build.run_for build (Netsim.Time.span_sec 120.);
  Alcotest.(check bool) "sparrow dropped the dead session" false
    (List.mem 2
       (List.map Bgp.Router.node_of_addr (sp1.Bgp.Speaker.sp_established ())));
  Alcotest.(check bool) "watchdog fired" true
    (Netsim.Stats.get (sp1.Bgp.Speaker.sp_stats ()) "hold_expired" >= 1);
  Alcotest.(check bool) "withdrawal propagated upstream" false
    (Bgp.Prefix_trie.mem (Topology.Gao_rexford.prefix_of_node 2)
       (Bgp.Speaker.loc_rib sp0))

let sparrow_reestablishes_after_recovery () =
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  let sp0 = Topology.Build.speaker build 0 in
  let sp1 = Topology.Build.speaker build 1 in
  Netsim.Network.set_node_down build.Topology.Build.net 2;
  Topology.Build.run_for build (Netsim.Time.span_sec 120.);
  Alcotest.(check bool) "down while peer dead" false
    (List.mem 2
       (List.map Bgp.Router.node_of_addr (sp1.Bgp.Speaker.sp_established ())));
  Netsim.Network.set_node_up build.Topology.Build.net 2;
  Topology.Build.run_for build (Netsim.Time.span_sec 300.);
  Alcotest.(check bool) "sparrow re-established" true
    (List.mem 2
       (List.map Bgp.Router.node_of_addr (sp1.Bgp.Speaker.sp_established ())));
  Alcotest.(check bool) "routes relearned end to end" true
    (Bgp.Prefix_trie.mem (Topology.Gao_rexford.prefix_of_node 2)
       (Bgp.Speaker.loc_rib sp0))

let bird_reaps_dead_sparrow () =
  (* The other direction of the interop: a reference router notices a
     silently dead Sparrow peer through its own hold timer. *)
  let _, build = deploy_line ~sparrow_nodes:[ 1 ] 3 in
  assert (Topology.Build.converge build);
  let sp0 = Topology.Build.speaker build 0 in
  Netsim.Network.set_node_down build.Topology.Build.net 1;
  Topology.Build.run_for build (Netsim.Time.span_sec 120.);
  Alcotest.(check bool) "bird dropped the dead sparrow" false
    (List.mem 1
       (List.map Bgp.Router.node_of_addr (sp0.Bgp.Speaker.sp_established ())));
  Alcotest.(check bool) "routes behind it flushed" false
    (Bgp.Prefix_trie.mem (Topology.Gao_rexford.prefix_of_node 2)
       (Bgp.Speaker.loc_rib sp0));
  Netsim.Network.set_node_up build.Topology.Build.net 1;
  Topology.Build.run_for build (Netsim.Time.span_sec 300.);
  Alcotest.(check bool) "interop session recovered" true
    (List.mem 1
       (List.map Bgp.Router.node_of_addr (sp0.Bgp.Speaker.sp_established ())))

let suite =
  [ ("sparrow: pair converges", `Quick, sparrow_pair_converges);
    ("mixed: chain converges", `Quick, mixed_chain_converges);
    ("mixed: withdrawal crosses implementations", `Quick, mixed_withdrawal_propagates);
    ("mixed: a network dropped at sparrow is withdrawn", `Quick, mixed_withdrawal_from_sparrow);
    ("mixed: a neighbor removed at sparrow is dropped as at a Router", `Quick,
     neighbor_removal_matches_router);
    ("mixed: 27-AS demo converges", `Slow, mixed_demo27_converges);
    ("sparrow: malformed attrs treated as withdraw", `Quick, sparrow_treats_malformed_as_withdraw);
    ("sparrow: corrupt header drops session", `Quick, sparrow_corrupt_header_drops_session);
    ("sparrow: capture/respawn", `Quick, sparrow_capture_respawn);
    ("mixed: a capture reads as its respawn", `Quick, capture_reads_as_respawn);
    ("mixed: checks clean when healthy", `Slow, sparrow_decision_matches_spec);
    ("mixed: shadows preserve implementations", `Quick, heterogeneous_shadow_preserves_impls);
    ("mixed: DiCE finds a sparrow crash bug", `Slow, dice_detects_sparrow_crash);
    ("sparrow: hold watchdog reaps dead peer", `Quick, sparrow_hold_reaps_dead_neighbor);
    ("sparrow: re-establishes after recovery", `Quick, sparrow_reestablishes_after_recovery);
    ("mixed: bird reaps dead sparrow and recovers", `Quick, bird_reaps_dead_sparrow);
    QCheck_alcotest.to_alcotest sparrow_selection_spec ]
