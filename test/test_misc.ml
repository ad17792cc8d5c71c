(* Edge cases across smaller APIs: grammar combinators, stats
   merging, trace querying, network error handling, engine stop. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Grammar combinators --- *)

let grammar_map_bind () =
  let rng = Netsim.Rng.create 9 in
  let g =
    Concolic.Grammar.bind (Concolic.Grammar.pure 20) (fun n ->
        Concolic.Grammar.map (fun x -> x + n) (Concolic.Grammar.range 1 5))
  in
  for _ = 1 to 50 do
    let v = Concolic.Grammar.run g rng in
    Alcotest.(check bool) "21..25" true (v >= 21 && v <= 25)
  done

let grammar_both_opt () =
  let rng = Netsim.Rng.create 10 in
  let g = Concolic.Grammar.both (Concolic.Grammar.pure "a") (Concolic.Grammar.range 0 0) in
  check (Alcotest.pair Alcotest.string Alcotest.int) "both" ("a", 0)
    (Concolic.Grammar.run g rng);
  let none_count = ref 0 in
  let some_count = ref 0 in
  for _ = 1 to 200 do
    match Concolic.Grammar.run (Concolic.Grammar.opt 0.5 (Concolic.Grammar.pure ())) rng with
    | Some () -> incr some_count
    | None -> incr none_count
  done;
  Alcotest.(check bool) "opt mixes" true (!none_count > 30 && !some_count > 30)

let grammar_shuffle_permutes =
  QCheck.Test.make ~name:"grammar: shuffle is a permutation" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Netsim.Rng.create seed in
      let shuffled = Concolic.Grammar.run (Concolic.Grammar.shuffle_of l) rng in
      List.sort compare shuffled = List.sort compare l)

let grammar_rejects_empty () =
  Alcotest.check_raises "choose []" (Invalid_argument "Grammar.choose: empty") (fun () ->
      ignore (Concolic.Grammar.choose []));
  Alcotest.check_raises "one_of []" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Concolic.Grammar.run (Concolic.Grammar.one_of []) (Netsim.Rng.create 1)))

(* --- Stats --- *)

let stats_add () =
  let a = Netsim.Stats.create () in
  Netsim.Stats.add a "x" 3;
  Netsim.Stats.add a "x" 4;
  check Alcotest.int "counters summed" 7 (Netsim.Stats.get a "x")

let stats_untouched () =
  let s = Netsim.Stats.create () in
  Netsim.Stats.incr s "x";
  check Alcotest.int "untouched counter" 0 (Netsim.Stats.get s "d")

(* --- Network error handling --- *)

let network_errors () =
  let topology nodes channels () = ignore (Netsim.Network.make_topology ~nodes ~channels) in
  Alcotest.check_raises "duplicate node"
    (Invalid_argument "Network.make_topology: node 0 twice")
    (topology [ 0; 1; 0 ] []);
  Alcotest.check_raises "channel to unknown node"
    (Invalid_argument "Network.make_topology: no node 9")
    (topology [ 0; 1 ] [ (0, 9) ]);
  Alcotest.check_raises "duplicate channel"
    (Invalid_argument "Network.make_topology: channel 0->1 twice")
    (topology [ 0; 1 ] [ (0, 1); (1, 0); (0, 1) ]);
  let net =
    Netsim.Network.create (Netsim.Engine.create ())
      (Netsim.Network.make_topology ~nodes:[ 0; 1 ] ~channels:[])
      (fun _ ~src:_ _ -> ())
  in
  Alcotest.check_raises "send without channel"
    (Invalid_argument "Network.send: no channel 0->1") (fun () ->
      Netsim.Network.send net ~src:0 ~dst:1 "x");
  Alcotest.(check bool) "absent node" false (Netsim.Network.has_node net 999)

let engine_stop_mid_run () =
  (* [max_events] stops a run after that many queue slots, a cancelled
     one included; [step] and a later run fire the rest in order. *)
  let eng = Netsim.Engine.create () in
  let fired = ref [] in
  let timers =
    List.init 10 (fun i -> Netsim.Engine.schedule eng ~after:100 (fun () -> fired := i :: !fired))
  in
  Netsim.Engine.cancel (List.nth timers 1);
  Netsim.Engine.run ~max_events:3 eng;
  check (Alcotest.list Alcotest.int) "stopped after the third slot" [ 0; 2 ] (List.rev !fired);
  Alcotest.(check bool) "step fires the next" true (Netsim.Engine.step eng);
  check (Alcotest.list Alcotest.int) "one more" [ 0; 2; 3 ] (List.rev !fired);
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.int) "resumed" [ 0; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !fired);
  Alcotest.(check bool) "drained" false (Netsim.Engine.step eng)

(* --- Speaker wrapper consistency --- *)

let speaker_wraps_router_faithfully () =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0 ] ~channels:[])
      (fun _ ~src:_ _ -> ())
  in
  let cfg =
    Bgp.Config.make ~asn:65001 ~router_id:(Bgp.Router.addr_of_node 0)
      ~networks:[ Bgp.Prefix.of_string_exn "192.0.2.0/24" ]
      ()
  in
  let r = Bgp.Router.create ~net ~node:0 cfg in
  let sp = Bgp.Speaker.of_router r in
  check Alcotest.string "impl" "bird-like" sp.Bgp.Speaker.sp_impl;
  check Alcotest.int "node" 0 sp.Bgp.Speaker.sp_node;
  Alcotest.(check bool) "loc rib matches" true
    (Bgp.Speaker.loc_rib sp = Bgp.Router.loc_rib r);
  Alcotest.(check bool) "config matches" true (sp.Bgp.Speaker.sp_config () = cfg)

(* --- Sym_route universe --- *)

let universe_contents () =
  let graph = Topology.Demo27.graph in
  let cfg = Topology.Gao_rexford.config_of graph 3 in
  let u = Dice.Sym_route.universe cfg Bgp.Router.no_bugs in
  (* the three relationship communities + no-export + no-advertise *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Bgp.Community.to_string c ^ " present")
        true
        (List.exists (Bgp.Community.equal c) u))
    [ Topology.Gao_rexford.community_customer; Topology.Gao_rexford.community_peer;
      Topology.Gao_rexford.community_provider; Bgp.Community.no_export;
      Bgp.Community.no_advertise ];
  (* a crash community extends the universe *)
  let poison = Bgp.Community.make 60000 1 in
  let u2 =
    Dice.Sym_route.universe cfg
      { Bgp.Router.no_bugs with Bgp.Router.crash_community = Some poison }
  in
  Alcotest.(check bool) "poison included" true
    (List.exists (Bgp.Community.equal poison) u2);
  (* 1-based indexing round-trips *)
  List.iteri
    (fun i c ->
      check (Alcotest.option Alcotest.int)
        (Printf.sprintf "index of element %d" i)
        (Some (i + 1))
        (Dice.Sym_route.community_index u c))
    u

let suite =
  [ ("grammar: map/bind", `Quick, grammar_map_bind);
    ("grammar: both/opt", `Quick, grammar_both_opt);
    qtest grammar_shuffle_permutes;
    ("grammar: empty productions rejected", `Quick, grammar_rejects_empty);
    ("stats: add accumulates", `Quick, stats_add);
    ("stats: untouched counter reads 0", `Quick, stats_untouched);
    ("network: error handling", `Quick, network_errors);
    ("engine: stop and resume", `Quick, engine_stop_mid_run);
    ("speaker: faithful router wrapper", `Quick, speaker_wraps_router_faithfully);
    ("sym-route: community universe", `Quick, universe_contents) ]
