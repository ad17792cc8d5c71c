(* Adversarial wire-fault injection: the Mangler transform, crash
   absorption, RFC 7606 interop across implementations, and mangled
   exploration seeds. *)

let check = Alcotest.check

let p = Bgp.Prefix.of_string_exn

let span_sec = Netsim.Time.span_sec

(* Registry counters are global for the test binary, so every assertion
   works on deltas around the operation under test. *)
let totals_delta f =
  let m0, d0, u0, p0 = Netsim.Mangler.totals () in
  let r = f () in
  let m1, d1, u1, p1 = Netsim.Mangler.totals () in
  (r, (m1 - m0, d1 - d0, u1 - u0, p1 - p0))

(* --- byte-level mutations --- *)

let mutate_deterministic () =
  let raw = String.init 64 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let run seed =
    let rng = Netsim.Rng.create seed in
    List.map (fun k -> Netsim.Mangler.mutate rng k raw) Netsim.Mangler.corpus_kinds
  in
  check (Alcotest.list Alcotest.string) "same seed, same mutations" (run 42) (run 42)

let mutate_total () =
  let rng = Netsim.Rng.create 7 in
  List.iter
    (fun k ->
      (* Total on any string, including the empty one. *)
      ignore (Netsim.Mangler.mutate rng k "");
      ignore (Netsim.Mangler.mutate rng k "x"))
    Netsim.Mangler.all_kinds;
  let raw = Bgp.Wire.encode Bgp.Msg.Keepalive in
  let trunc = Netsim.Mangler.mutate rng Netsim.Mangler.Truncate raw in
  Alcotest.(check bool) "truncate strictly shorter" true
    (String.length trunc < String.length raw);
  let marker = Netsim.Mangler.mutate rng Netsim.Mangler.Corrupt_marker raw in
  Alcotest.(check bool) "marker byte no longer 0xff" true
    (String.exists (fun c -> c <> '\xff') (String.sub marker 0 16))

(* --- the transform --- *)

let rate0_is_identity () =
  let t = Netsim.Mangler.create ~seed:1 () in
  let msg = "hello wire" in
  let out, (m, d, u, passed) =
    totals_delta (fun () -> Netsim.Mangler.transform t ~src:0 ~dst:1 msg)
  in
  check (Alcotest.list Alcotest.string) "untouched singleton" [ msg ] out;
  (* The idle path touches nothing at all — not even the passed
     counter — so an installed-but-idle mangler is free. *)
  check Alcotest.int "nothing mangled" 0 m;
  check Alcotest.int "nothing dropped" 0 d;
  check Alcotest.int "nothing duplicated" 0 u;
  check Alcotest.int "nothing counted" 0 passed

let drop_and_duplicate () =
  let msg = "payload" in
  let t = Netsim.Mangler.create ~seed:2 ~rate:1.0 ~kinds:[ Netsim.Mangler.Drop ] () in
  let out, (_, dropped, _, _) =
    totals_delta (fun () -> Netsim.Mangler.transform t ~src:0 ~dst:1 msg)
  in
  check (Alcotest.list Alcotest.string) "dropped" [] out;
  check Alcotest.int "drop counted" 1 dropped;
  Netsim.Mangler.set_kinds t [ Netsim.Mangler.Duplicate ];
  let out, (_, _, duplicated, _) =
    totals_delta (fun () -> Netsim.Mangler.transform t ~src:0 ~dst:1 msg)
  in
  check (Alcotest.list Alcotest.string) "delivered twice" [ msg; msg ] out;
  check Alcotest.int "duplicate counted" 1 duplicated

let link_restriction () =
  let t =
    Netsim.Mangler.create ~seed:3 ~rate:1.0 ~links:[ (0, 1) ]
      ~kinds:[ Netsim.Mangler.Drop ] ()
  in
  check (Alcotest.list Alcotest.string) "other direction untouched" [ "m" ]
    (Netsim.Mangler.transform t ~src:1 ~dst:0 "m");
  check (Alcotest.list Alcotest.string) "targeted link mangled" []
    (Netsim.Mangler.transform t ~src:0 ~dst:1 "m")

let per_link_streams_deterministic () =
  let run () =
    let t = Netsim.Mangler.create ~seed:9 ~rate:0.5 () in
    List.concat_map
      (fun (s, d) ->
        List.init 20 (fun i ->
            Netsim.Mangler.transform t ~src:s ~dst:d (Printf.sprintf "msg%d" i)))
      [ (0, 1); (1, 0); (2, 3) ]
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "same seed, same fault pattern" (run ()) (run ())

let schedule_window () =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0 ] ~channels:[])
      (fun _ ~src:_ (_ : string) -> ())
  in
  let t = Netsim.Mangler.create ~seed:4 () in
  let sched =
    Netsim.Mangler.window ~rate:0.25 ~from_:(span_sec 5.) ~until_:(span_sec 10.)
  in
  let timers = Netsim.Mangler.apply t net sched in
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 7.) eng;
  check (Alcotest.float 1e-9) "window open" 0.25 (Netsim.Mangler.rate t);
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 12.) eng;
  check (Alcotest.float 1e-9) "window closed" 0. (Netsim.Mangler.rate t);
  Netsim.Mangler.cancel timers

(* --- crash absorption --- *)

exception Boom

let absorb_restarts_node () =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1 ] ~channels:[ (0, 1); (1, 0) ])
      (fun id ~src:_ msg -> if id = 1 && msg = "boom" then raise Boom)
  in
  Netsim.Network.set_crash_policy net
    (Netsim.Network.Absorb { restart_after = Some (span_sec 5.) });
  Netsim.Network.send net ~src:0 ~dst:1 "boom";
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 1.) eng;
  (match Netsim.Network.crashes net with
  | [ c ] ->
      check Alcotest.int "crashed node" 1 c.Netsim.Network.cr_node;
      check Alcotest.int "fatal sender" 0 c.Netsim.Network.cr_src
  | l -> Alcotest.failf "expected one absorbed crash, got %d" (List.length l));
  Alcotest.(check bool) "node taken down" false (Netsim.Network.node_is_up net 1);
  Netsim.Engine.run ~until:(Netsim.Time.of_sec 10.) eng;
  Alcotest.(check bool) "node restarted" true (Netsim.Network.node_is_up net 1)

let propagate_is_default () =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1 ] ~channels:[ (0, 1); (1, 0) ])
      (fun id ~src:_ (_ : string) -> if id = 1 then raise Boom)
  in
  Netsim.Network.send net ~src:0 ~dst:1 "boom";
  Alcotest.check_raises "handler exception escapes" Boom (fun () ->
      Netsim.Engine.run ~until:(Netsim.Time.of_sec 1.) eng)

(* --- link retransmit cap accounting --- *)

let retransmit_cap_counted () =
  let link = Netsim.Link.make ~loss:0.9 ~max_retries:2 (span_sec 0.001) in
  let rng = Netsim.Rng.create 5 in
  let c = Telemetry.Metrics.counter "link.retransmit_cap_hits" in
  let before = Telemetry.Metrics.value c in
  for _ = 1 to 200 do
    ignore (Netsim.Link.delay link rng)
  done;
  (* loss 0.9 with a cap of 2 truncates ~81% of draws. *)
  Alcotest.(check bool) "cap hits counted" true (Telemetry.Metrics.value c > before)

(* --- RFC 7606 interop: both implementation pairings --- *)

let deploy_pair ~sparrow_nodes =
  let nodes = [ (0, Topology.Graph.Tier1); (1, Topology.Graph.Transit) ] in
  let edges = [ { Topology.Graph.a = 1; b = 0; rel = Topology.Graph.Customer_provider } ] in
  let g = Topology.Graph.make ~nodes ~edges in
  let build = Topology.Build.deploy ~sparrow_nodes g in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  build

let corrupt_origin_update ~from_node =
  let attrs =
    Bgp.Attr.make ~origin:Bgp.Attr.Igp
      ~as_path:[ Bgp.As_path.Seq [ Topology.Gao_rexford.asn_of_node from_node ] ]
      ~next_hop:(Bgp.Router.addr_of_node from_node) ()
  in
  let raw =
    Bgp.Wire.encode
      (Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [ p "203.0.113.0/24" ] })
  in
  let b = Bytes.of_string raw in
  Bytes.set b 26 '\xee' (* invalid ORIGIN: a path-attribute error *);
  Bytes.to_string b

(* Both directions of the heterogeneous pairing agree on RFC 7606:
   attribute errors from the *other* implementation are treated as
   withdraw, not as session resets. *)
let interop_treat_as_withdraw () =
  List.iter
    (fun (sparrow_nodes, victim, peer) ->
      let build = deploy_pair ~sparrow_nodes in
      let sp = Topology.Build.speaker build victim in
      sp.Bgp.Speaker.sp_process_raw ~from_node:peer (corrupt_origin_update ~from_node:peer);
      check Alcotest.int
        (Printf.sprintf "%s treat-as-withdraw counted" sp.Bgp.Speaker.sp_impl)
        1
        (Netsim.Stats.get (sp.Bgp.Speaker.sp_stats ()) "rx_treat_as_withdraw");
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "%s session survives" sp.Bgp.Speaker.sp_impl)
        [ peer ]
        (List.map Bgp.Router.node_of_addr (sp.Bgp.Speaker.sp_established ())))
    [ (* bird-like victim, sparrow peer *) ([ 1 ], 0, 1);
      (* sparrow victim, bird-like peer *) ([ 1 ], 1, 0) ]

(* --- a fragile decoder under live mangling --- *)

let mangled_wire_crashes_absorbed () =
  let build = deploy_pair ~sparrow_nodes:[] in
  let net = build.Topology.Build.net in
  Netsim.Network.set_crash_policy net
    (Netsim.Network.Absorb { restart_after = Some (span_sec 10.) });
  let sp = Topology.Build.speaker build 1 in
  sp.Bgp.Speaker.sp_set_bugs
    { (sp.Bgp.Speaker.sp_bugs ()) with Bgp.Router.fragile_decode = true };
  (* Corrupt_marker breaks framing on every message, so the first
     UPDATE node 0 sends after the mangler goes live kills the fragile
     decoder on node 1. *)
  let t =
    Netsim.Mangler.create ~seed:0xBEEF ~rate:1.0
      ~kinds:[ Netsim.Mangler.Corrupt_marker ] ()
  in
  Netsim.Mangler.install t net;
  let sp0 = Topology.Build.speaker build 0 in
  let cfg = sp0.Bgp.Speaker.sp_config () in
  sp0.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
  Topology.Build.run_for build (span_sec 5.);
  Netsim.Mangler.remove net;
  Alcotest.(check bool) "fragile decoder crashed and was absorbed" true
    (List.exists (fun c -> c.Netsim.Network.cr_node = 1) (Netsim.Network.crashes net));
  Alcotest.(check bool) "node taken down by the crash" false
    (Netsim.Network.node_is_up net 1);
  (* The absorb policy schedules a restart. *)
  Topology.Build.run_for build (span_sec 20.);
  Alcotest.(check bool) "node restarted" true (Netsim.Network.node_is_up net 1)

(* --- mangled exploration seeds --- *)

let explorer_detects_codec_crash () =
  let nodes =
    [ (0, Topology.Graph.Tier1); (1, Topology.Graph.Transit); (2, Topology.Graph.Stub) ]
  in
  let edges =
    [ { Topology.Graph.a = 1; b = 0; rel = Topology.Graph.Customer_provider };
      { Topology.Graph.a = 2; b = 1; rel = Topology.Graph.Customer_provider } ]
  in
  let g = Topology.Graph.make ~nodes ~edges in
  let build = Topology.Build.deploy g in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let sp = Topology.Build.speaker build 1 in
  sp.Bgp.Speaker.sp_set_bugs
    { (sp.Bgp.Speaker.sp_bugs ()) with Bgp.Router.fragile_decode = true };
  let gt = Dice.Checks.ground_truth_of_graph g in
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let params =
    { Dice.Explorer.default_params with
      Dice.Explorer.mangle_extra = 8;
      mangle_seed = 0x5EED }
  in
  let x = Dice.Explorer.explore_node ~params ~build ~cut ~gt ~node:1 () in
  Alcotest.(check bool) "mangled seeds were replayed" true
    (x.Dice.Explorer.x_mangled > 0);
  Alcotest.(check bool) "codec crash detected as a programming error" true
    (List.exists
       (fun f ->
         f.Dice.Fault.f_class = Dice.Fault.Programming_error
         && f.Dice.Fault.f_property = "codec-crash")
       x.Dice.Explorer.x_faults)

let suite =
  [ ("mangler: mutate is deterministic", `Quick, mutate_deterministic);
    ("mangler: mutate is total", `Quick, mutate_total);
    ("mangler: rate 0 is identity", `Quick, rate0_is_identity);
    ("mangler: drop and duplicate", `Quick, drop_and_duplicate);
    ("mangler: link restriction", `Quick, link_restriction);
    ("mangler: per-link streams deterministic", `Quick, per_link_streams_deterministic);
    ("mangler: schedule window", `Quick, schedule_window);
    ("network: absorbed crash restarts node", `Quick, absorb_restarts_node);
    ("network: propagate is the default", `Quick, propagate_is_default);
    ("link: retransmit cap hits counted", `Quick, retransmit_cap_counted);
    ("interop: treat-as-withdraw both directions", `Quick, interop_treat_as_withdraw);
    ("adversary: fragile decoder crash absorbed", `Quick, mangled_wire_crashes_absorbed);
    ("adversary: explorer finds codec crash", `Slow, explorer_detects_codec_crash) ]
