(* Router integration: multi-router convergence over the simulator. *)

let check = Alcotest.check

let p = Bgp.Prefix.of_string_exn

(* A linear chain of [n] eBGP routers, each originating one prefix. *)
let chain n =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:(List.init n Fun.id)
         ~channels:(List.concat (List.init (n - 1) (fun i -> [ (i, i + 1); (i + 1, i) ]))))
      (fun _ ~src:_ _ -> ())
  in
  let routers =
    List.init n (fun i ->
        let neighbors =
          (if i > 0 then
             [ Bgp.Config.neighbor (Bgp.Router.addr_of_node (i - 1)) ~remote_as:(1000 + i - 1) ]
           else [])
          @
          if i < n - 1 then
            [ Bgp.Config.neighbor (Bgp.Router.addr_of_node (i + 1)) ~remote_as:(1000 + i + 1) ]
          else []
        in
        let cfg =
          Bgp.Config.make ~asn:(1000 + i)
            ~router_id:(Bgp.Router.addr_of_node i)
            ~networks:[ p (Printf.sprintf "192.0.%d.0/24" i) ]
            ~neighbors ()
        in
        Bgp.Router.create ~net ~node:i cfg)
  in
  List.iter Bgp.Router.start routers;
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 30.) eng;
  (eng, net, routers)

let chain_converges () =
  let _, _, routers = chain 4 in
  List.iteri
    (fun i r ->
      check Alcotest.int
        (Printf.sprintf "router %d sees all prefixes" i)
        4
        (Bgp.Prefix_trie.cardinal (Bgp.Router.loc_rib r)))
    routers;
  (* path lengths grow with distance *)
  let r0 = List.hd routers in
  match Bgp.Prefix_trie.find (p "192.0.3.0/24") (Bgp.Router.loc_rib r0) with
  | Some route ->
      check Alcotest.int "3 hops away" 3
        (Bgp.As_path.length route.Bgp.Rib.attrs.Bgp.Attr.as_path)
  | None -> Alcotest.fail "distant prefix must be known"

let withdrawal_propagates () =
  let eng, _, routers = chain 3 in
  let r2 = List.nth routers 2 in
  (* Remove router 2's network statement: it withdraws its prefix. *)
  let cfg = Bgp.Router.config r2 in
  Bgp.Router.set_config r2 { cfg with Bgp.Config.networks = [] };
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 10.)) eng;
  let r0 = List.hd routers in
  check (Alcotest.option Alcotest.reject) "r0 lost the prefix" None
    (Option.map ignore (Bgp.Prefix_trie.find (p "192.0.2.0/24") (Bgp.Router.loc_rib r0)))

(* A config without a neighbor drops that peer's routes at once, and
   re-imports every other peer's. *)
let removed_neighbor_dropped () =
  let _, _, routers = chain 3 in
  let r1 = List.nth routers 1 in
  let gone = Bgp.Router.addr_of_node 2 in
  let cfg = Bgp.Router.config r1 in
  Bgp.Router.set_config r1
    { cfg with
      Bgp.Config.neighbors =
        List.filter
          (fun (n : Bgp.Config.neighbor) -> not (Bgp.Ipv4.equal n.Bgp.Config.addr gone))
          cfg.Bgp.Config.neighbors };
  let rib = Bgp.Router.rib r1 in
  check Alcotest.int "no route from the removed peer" 0
    (List.length (Bgp.Rib.prefixes_from_peer gone rib));
  Alcotest.(check bool) "its prefix left the Loc-RIB" false
    (Bgp.Prefix_trie.mem (p "192.0.2.0/24") (Bgp.Router.loc_rib r1));
  Alcotest.(check bool) "the other peer's route stays" true
    (Bgp.Prefix_trie.mem (p "192.0.0.0/24") (Bgp.Router.loc_rib r1));
  check Alcotest.int "one route received in all" 1 (Bgp.Rib.total_adj_in rib)

let session_down_flushes_routes () =
  let eng, _, routers = chain 3 in
  let r1 = List.nth routers 1 in
  Bgp.Router.stop_session r1 (Bgp.Router.addr_of_node 2);
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 5.)) eng;
  let r0 = List.hd routers in
  check (Alcotest.option Alcotest.reject) "r0 lost routes behind the dead session" None
    (Option.map ignore (Bgp.Prefix_trie.find (p "192.0.2.0/24") (Bgp.Router.loc_rib r0)))

let session_restarts_automatically () =
  let eng, _, routers = chain 2 in
  let r0 = List.hd routers and r1 = List.nth routers 1 in
  Bgp.Router.stop_session r0 (Bgp.Router.addr_of_node 1);
  (* a live router restarts a dropped session after an idle delay *)
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 60.)) eng;
  check (Alcotest.list Alcotest.int) "session back up" [ 0 ]
    (List.map Bgp.Router.node_of_addr (Bgp.Router.established_peers r1));
  check Alcotest.int "routes relearned" 2 (Bgp.Prefix_trie.cardinal (Bgp.Router.loc_rib r0))

let no_export_respected () =
  let eng, _, routers = chain 3 in
  let r2 = List.nth routers 2 in
  (* r2 re-announces its prefix tagged no-export; r1 must keep it local. *)
  let cfg = Bgp.Router.config r2 in
  let tag_map =
    [ ("TAG-NE",
       [ Bgp.Policy.entry 10 Bgp.Policy.Permit
           ~sets:[ Bgp.Policy.Add_community Bgp.Community.no_export ] ]) ]
  in
  let neighbors =
    List.map
      (fun (n : Bgp.Config.neighbor) -> { n with Bgp.Config.export_map = Some "TAG-NE" })
      cfg.Bgp.Config.neighbors
  in
  Bgp.Router.set_config r2 { cfg with Bgp.Config.route_maps = tag_map; neighbors };
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 10.)) eng;
  let r1 = List.nth routers 1 and r0 = List.hd routers in
  Alcotest.(check bool) "r1 still has it" true
    (Bgp.Prefix_trie.mem (p "192.0.2.0/24") (Bgp.Router.loc_rib r1));
  Alcotest.(check bool) "r0 does not (no-export stopped it)" false
    (Bgp.Prefix_trie.mem (p "192.0.2.0/24") (Bgp.Router.loc_rib r0))

let loop_prevention () =
  (* A triangle: routes must never be accepted back by their origin. *)
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1; 2 ]
         ~channels:[ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ])
      (fun _ ~src:_ _ -> ())
  in
  let mk i others =
    Bgp.Config.make ~asn:(1000 + i) ~router_id:(Bgp.Router.addr_of_node i)
      ~networks:[ p (Printf.sprintf "192.0.%d.0/24" i) ]
      ~neighbors:
        (List.map (fun j -> Bgp.Config.neighbor (Bgp.Router.addr_of_node j) ~remote_as:(1000 + j)) others)
      ()
  in
  let routers = [ Bgp.Router.create ~net ~node:0 (mk 0 [ 1; 2 ]);
                  Bgp.Router.create ~net ~node:1 (mk 1 [ 0; 2 ]);
                  Bgp.Router.create ~net ~node:2 (mk 2 [ 0; 1 ]) ] in
  List.iter Bgp.Router.start routers;
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 30.) eng;
  List.iteri
    (fun i r ->
      List.iter
        (fun (_, (route : Bgp.Rib.route)) ->
          if Bgp.As_path.contains (1000 + i) route.Bgp.Rib.attrs.Bgp.Attr.as_path then
            Alcotest.failf "router %d accepted a looped path" i)
        (Bgp.Prefix_trie.bindings (Bgp.Router.loc_rib r)))
    routers

(* A corrupted UPDATE that still frames correctly.  The bad byte is the
   ORIGIN value (offset 26 = 19 header + 2 withdrawn-len + 2 attr-len +
   flags/type/len), a path-attribute error: RFC 7606 semantics. *)
let corrupt_origin_update () =
  let attrs =
    Bgp.Attr.make ~origin:Bgp.Attr.Igp
      ~as_path:[ Bgp.As_path.Seq [ 1000 ] ]
      ~next_hop:(Bgp.Router.addr_of_node 0) ()
  in
  let raw =
    Bgp.Wire.encode
      (Bgp.Msg.Update
         { withdrawn = []; attrs = Some attrs; nlri = [ p "192.0.0.0/24" ] })
  in
  let b = Bytes.of_string raw in
  Bytes.set b 26 '\xee' (* invalid ORIGIN *);
  Bytes.to_string b

let malformed_update_treated_as_withdraw () =
  let eng, net, routers = chain 2 in
  ignore net;
  let r1 = List.nth routers 1 in
  (* r1 learned 192.0.0.0/24 from node 0 during convergence. *)
  Alcotest.(check bool) "prefix learned" true
    (Bgp.Prefix_trie.mem (p "192.0.0.0/24") (Bgp.Router.loc_rib r1));
  Bgp.Router.process_raw r1 ~from_node:0 (corrupt_origin_update ());
  (* Attribute error on an Established session: withdraw the NLRI,
     count it, keep the session up (treat-as-withdraw). *)
  check (Alcotest.option (Alcotest.testable Bgp.Fsm.pp_state ( = )))
    "session stays Established" (Some Bgp.Fsm.Established)
    (Bgp.Router.session_state r1 (Bgp.Router.addr_of_node 0));
  check Alcotest.int "treat-as-withdraw counted" 1
    (Netsim.Stats.get (Bgp.Router.stats r1) "rx_treat_as_withdraw");
  check Alcotest.int "not counted as malformed" 0
    (Netsim.Stats.get (Bgp.Router.stats r1) "rx_malformed");
  Alcotest.(check bool) "affected prefix withdrawn" false
    (Bgp.Prefix_trie.mem (p "192.0.0.0/24") (Bgp.Router.loc_rib r1));
  ignore eng

let corrupt_header_resets_session () =
  let eng, net, routers = chain 2 in
  ignore net;
  let r1 = List.nth routers 1 in
  (* Header corruption is not recoverable: NOTIFICATION + reset. *)
  let b = Bytes.of_string (corrupt_origin_update ()) in
  Bytes.set b 0 '\x00' (* break the marker *);
  Bgp.Router.process_raw r1 ~from_node:0 (Bytes.to_string b);
  check (Alcotest.option (Alcotest.testable Bgp.Fsm.pp_state ( = )))
    "session reset to Idle" (Some Bgp.Fsm.Idle)
    (Bgp.Router.session_state r1 (Bgp.Router.addr_of_node 0));
  check Alcotest.int "malformed counted" 1
    (Netsim.Stats.get (Bgp.Router.stats r1) "rx_malformed");
  check Alcotest.int "no treat-as-withdraw" 0
    (Netsim.Stats.get (Bgp.Router.stats r1) "rx_treat_as_withdraw");
  ignore eng

let state_is_persistent () =
  let _, _, routers = chain 3 in
  let r0 = List.hd routers in
  let before = Bgp.Router.state r0 in
  let loc_before = Bgp.Prefix_trie.cardinal before.Bgp.Router.rib.Bgp.Rib.loc in
  (* Mutate the router; the captured state must not change. *)
  Bgp.Router.inject_update r0 ~from:(Bgp.Router.addr_of_node 1)
    { Bgp.Msg.withdrawn = [ p "192.0.1.0/24"; p "192.0.2.0/24" ]; attrs = None; nlri = [] };
  Alcotest.(check bool) "live state changed" true
    (Bgp.Prefix_trie.cardinal (Bgp.Router.rib r0).Bgp.Rib.loc < loc_before);
  check Alcotest.int "captured state unchanged" loc_before
    (Bgp.Prefix_trie.cardinal before.Bgp.Router.rib.Bgp.Rib.loc);
  Bgp.Router.restore r0 before;
  check Alcotest.int "restore brings it back" loc_before
    (Bgp.Prefix_trie.cardinal (Bgp.Router.rib r0).Bgp.Rib.loc)

let hold_timer_tears_down_dead_peer () =
  let eng, net, routers = chain 3 in
  let r0 = List.hd routers and r1 = List.nth routers 1 in
  (* Node 2 fails silently: no NOTIFICATION, no withdrawal — only the
     hold timer can notice. *)
  Netsim.Network.set_node_down net 2;
  Netsim.Engine.run
    ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 120.)) eng;
  Alcotest.(check bool) "r1 dropped the dead session" false
    (List.mem (Bgp.Router.addr_of_node 2) (Bgp.Router.established_peers r1));
  Alcotest.(check bool) "r0 lost routes behind the dead peer" false
    (Bgp.Prefix_trie.mem (p "192.0.2.0/24") (Bgp.Router.loc_rib r0));
  Alcotest.(check bool) "hold expiry recorded" true
    (Netsim.Stats.get (Bgp.Router.stats r1) "session_down" >= 1)

let dead_peer_recovers () =
  let eng, net, routers = chain 3 in
  let r0 = List.hd routers and r1 = List.nth routers 1 in
  Netsim.Network.set_node_down net 2;
  Netsim.Engine.run
    ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 120.)) eng;
  Alcotest.(check bool) "prefix gone while down" false
    (Bgp.Prefix_trie.mem (p "192.0.2.0/24") (Bgp.Router.loc_rib r0));
  Netsim.Network.set_node_up net 2;
  Netsim.Engine.run
    ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 300.)) eng;
  Alcotest.(check bool) "session re-established" true
    (List.mem (Bgp.Router.addr_of_node 2) (Bgp.Router.established_peers r1));
  Alcotest.(check bool) "routes relearned" true
    (Bgp.Prefix_trie.mem (p "192.0.2.0/24") (Bgp.Router.loc_rib r0))

let stuck_open_times_out () =
  (* A peer that is down from the very start: the session attempt parks
     in OpenSent and must be reaped by the hold timer, not hang. *)
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1 ] ~channels:[ (0, 1); (1, 0) ])
      (fun _ ~src:_ _ -> ())
  in
  Netsim.Network.set_node_down net 1;
  let cfg =
    Bgp.Config.make ~asn:1000 ~router_id:(Bgp.Router.addr_of_node 0)
      ~networks:[ p "192.0.0.0/24" ]
      ~neighbors:[ Bgp.Config.neighbor (Bgp.Router.addr_of_node 1) ~remote_as:1001 ]
      ()
  in
  let r0 = Bgp.Router.create ~net ~node:0 cfg in
  Bgp.Router.start r0;
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 95.) eng;
  (* 90 s hold expired: the FSM must have cycled out of its first
     OpenSent rather than waiting forever on the silent peer. *)
  (match Bgp.Router.session_state r0 (Bgp.Router.addr_of_node 1) with
  | Some Bgp.Fsm.Established -> Alcotest.fail "cannot establish with a dead peer"
  | Some _ | None -> ());
  Alcotest.(check bool) "session torn down at least once" true
    (Netsim.Stats.get (Bgp.Router.stats r0) "session_down" >= 1
    || Netsim.Stats.get (Bgp.Router.stats r0) "tx_notification" >= 1)

(* A speaker returns its last capture while nothing a capture holds has
   changed, and a new one, described as a fresh respawn, once its
   config, bug flags or routing or session state change. *)
let capture_reused_while_unchanged () =
  let eng, _, routers = chain 3 in
  let r1 = List.nth routers 1 in
  let sp = Bgp.Speaker.of_router r1 in
  let established () =
    check Alcotest.int "both sessions Established" 2
      (List.length (Bgp.Router.established_peers r1))
  in
  established ();
  let first = Bgp.Speaker.capture sp in
  let same what =
    Alcotest.(check bool) (what ^ ": same capture") true (Bgp.Speaker.capture sp == first)
  in
  same "captured again";
  let tx = Netsim.Stats.get (Bgp.Router.stats r1) "tx_keepalive" in
  Bgp.Router.process_raw r1 ~from_node:0 (Bgp.Wire.encode Bgp.Msg.keepalive);
  same "a KEEPALIVE received";
  (* Past one keepalive interval (a third of the 90 s hold time). *)
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now eng) (Netsim.Time.span_sec 31.)) eng;
  Alcotest.(check bool) "the keepalive timer fired" true
    (Netsim.Stats.get (Bgp.Router.stats r1) "tx_keepalive" > tx);
  established ();
  same "keepalives sent and received";
  (* A fresh network with the chain's node ids, for respawns. *)
  let respawn_digest (cap : Bgp.Speaker.capture) =
    let net =
      Netsim.Network.create (Netsim.Engine.create ())
        (Netsim.Network.make_topology ~nodes:[ 0; 1; 2 ] ~channels:[])
        (fun _ ~src:_ _ -> ())
    in
    (cap.Bgp.Speaker.cap_respawn ~net ~bugs:cap.Bgp.Speaker.cap_bugs).Bgp.Speaker.sp_digest ()
  in
  let prev = ref first in
  let changed what =
    let cap = Bgp.Speaker.capture sp in
    Alcotest.(check bool) (what ^ ": a new capture") false (cap == !prev);
    check Alcotest.string (what ^ ": digest is a fresh respawn's")
      (Digest.to_hex (respawn_digest cap))
      (Digest.to_hex (cap.Bgp.Speaker.cap_digest ()));
    Alcotest.(check bool) (what ^ ": then kept") true (Bgp.Speaker.capture sp == cap);
    prev := cap
  in
  check Alcotest.string "the first capture's digest is a fresh respawn's"
    (Digest.to_hex (respawn_digest first))
    (Digest.to_hex (first.Bgp.Speaker.cap_digest ()));
  let cfg = Bgp.Router.config r1 in
  Bgp.Router.set_config r1 { cfg with Bgp.Config.hold_time = cfg.Bgp.Config.hold_time };
  changed "set_config";
  Bgp.Router.set_bugs r1 { Bgp.Router.no_bugs with Bgp.Router.invert_med = true };
  changed "set_bugs";
  Bgp.Router.inject_update r1 ~from:(Bgp.Router.addr_of_node 0)
    { Bgp.Msg.withdrawn = [];
      attrs =
        Some
          (Bgp.Attr.make ~origin:Bgp.Attr.Igp
             ~as_path:[ Bgp.As_path.Seq [ 1000; 64512 ] ]
             ~next_hop:(Bgp.Router.addr_of_node 0) ());
      nlri = [ p "198.51.100.0/24" ] };
  Alcotest.(check bool) "the UPDATE changed the RIB" true
    (Bgp.Prefix_trie.mem (p "198.51.100.0/24") (Bgp.Router.loc_rib r1));
  changed "an UPDATE that changes the RIB";
  Bgp.Router.stop_session r1 (Bgp.Router.addr_of_node 2);
  changed "a session drop"

let suite =
  [ ("router: chain convergence", `Quick, chain_converges);
    ("router: capture reused while the state is unchanged", `Quick,
      capture_reused_while_unchanged);
    ("router: withdrawal propagates", `Quick, withdrawal_propagates);
    ("router: removed neighbor dropped", `Quick, removed_neighbor_dropped);
    ("router: session down flushes", `Quick, session_down_flushes_routes);
    ("router: auto restart", `Quick, session_restarts_automatically);
    ("router: no-export respected", `Quick, no_export_respected);
    ("router: loop prevention", `Quick, loop_prevention);
    ("router: malformed attrs treated as withdraw", `Quick, malformed_update_treated_as_withdraw);
    ("router: corrupt header resets session", `Quick, corrupt_header_resets_session);
    ("router: state is persistent", `Quick, state_is_persistent);
    ("router: hold timer reaps dead peer", `Quick, hold_timer_tears_down_dead_peer);
    ("router: dead peer recovers", `Quick, dead_peer_recovers);
    ("router: stuck OpenSent times out", `Quick, stuck_open_times_out) ]
