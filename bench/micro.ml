(* Bechamel micro-benchmarks: one Test.make per per-operation cost that
   the overhead discussion (T2) relies on. *)

open Bechamel
open Toolkit

let sample_update =
  let attrs =
    Bgp.Attr.make ~origin:Bgp.Attr.Igp
      ~as_path:[ Bgp.As_path.Seq [ 65001; 65002; 65003 ] ]
      ~med:(Some 50)
      ~communities:[ Bgp.Community.make 65001 100; Bgp.Community.no_export ]
      ~next_hop:(Bgp.Ipv4.of_string_exn "10.0.0.1")
      ()
  in
  Bgp.Msg.Update
    { withdrawn = [ Bgp.Prefix.of_string_exn "198.51.100.0/24" ];
      attrs = Some attrs;
      nlri =
        [ Bgp.Prefix.of_string_exn "192.0.2.0/24";
          Bgp.Prefix.of_string_exn "203.0.113.0/24" ] }

let sample_raw = Bgp.Wire.encode sample_update

let bench_wire_encode =
  Test.make ~name:"wire/encode-update" (Staged.stage (fun () -> Bgp.Wire.encode sample_update))

let bench_wire_decode =
  Test.make ~name:"wire/decode-update" (Staged.stage (fun () -> Bgp.Wire.decode sample_raw))

let big_trie =
  let rng = Netsim.Rng.create 4 in
  let bindings =
    List.init 10_000 (fun i ->
        ( Bgp.Prefix.make
            (Bgp.Ipv4.of_octets (Netsim.Rng.int_in rng 1 223) (i lsr 8) (i land 255) 0)
            24,
          i ))
  in
  Bgp.Prefix_trie.of_list bindings

let bench_trie_lpm =
  let addr = Bgp.Ipv4.of_string_exn "100.3.7.9" in
  Test.make ~name:"trie/longest-match-10k" (Staged.stage (fun () -> Bgp.Prefix_trie.longest_match addr big_trie))

(* A gr250-sized RIB: the 250 nodes' /24s, each with three candidate
   routes and a selected one, as a converged Gao-Rexford node holds. *)
let rib_route peer hops =
  { Bgp.Rib.attrs =
      Bgp.Attr.make ~origin:Bgp.Attr.Igp
        ~as_path:[ Bgp.As_path.Seq (List.init hops (fun i -> 65000 + peer + i)) ]
        ~next_hop:(Bgp.Router.addr_of_node peer) ();
    source =
      { Bgp.Rib.peer_addr = Bgp.Router.addr_of_node peer;
        peer_as = 65000 + peer;
        peer_bgp_id = Bgp.Router.addr_of_node peer;
        ebgp = true;
        igp_metric = 0 } }

let rib_250 =
  List.fold_left
    (fun rib node ->
      let prefix = Topology.Gao_rexford.prefix_of_node node in
      let rib =
        List.fold_left
          (fun rib peer ->
            Bgp.Rib.adj_in_set (Bgp.Router.addr_of_node peer) prefix
              (rib_route peer (2 + ((node + peer) mod 4)))
              rib)
          rib [ 1; 2; 3 ]
      in
      Bgp.Rib.loc_set prefix (rib_route 1 (2 + ((node + 1) mod 4))) rib)
    Bgp.Rib.empty (List.init 250 Fun.id)

(* The Router's lookup of one prefix's candidate set on an UPDATE. *)
let bench_trie_find =
  let prefix = Topology.Gao_rexford.prefix_of_node 137 in
  Test.make ~name:"trie/find-250"
    (Staged.stage (fun () -> Bgp.Prefix_trie.find prefix rib_250.Bgp.Rib.cands))

(* What a replay leaves at a touched speaker: one new candidate and a
   new selection for one prefix, against the RIB it started from. *)
let bench_changed_prefixes =
  let prefix = Topology.Gao_rexford.prefix_of_node 137 in
  let changed =
    rib_250
    |> Bgp.Rib.adj_in_set (Bgp.Router.addr_of_node 4) prefix (rib_route 4 1)
    |> Bgp.Rib.loc_set prefix (rib_route 4 1)
  in
  Test.make ~name:"rib/changed-prefixes-1-of-250"
    (Staged.stage (fun () -> Bgp.Rib.changed_prefixes rib_250 changed))

let candidates =
  let route i =
    { Bgp.Rib.attrs =
        Bgp.Attr.make ~origin:Bgp.Attr.Igp
          ~as_path:[ Bgp.As_path.Seq [ 65000 + i; 65100 + i ] ]
          ~local_pref:(Some (100 + (i mod 3)))
          ~next_hop:(Bgp.Router.addr_of_node i) ();
      source =
        { Bgp.Rib.peer_addr = Bgp.Router.addr_of_node i;
          peer_as = 65000 + i;
          peer_bgp_id = Bgp.Router.addr_of_node i;
          ebgp = true;
          igp_metric = i } }
  in
  List.init 8 route

let bench_decision =
  Test.make ~name:"decision/best-of-8"
    (Staged.stage (fun () -> Bgp.Decision.best Bgp.Decision.default_config candidates))

let gao_policy = Topology.Gao_rexford.import_map Topology.Graph.Customer

let policy_attrs =
  Bgp.Attr.make ~origin:Bgp.Attr.Igp
    ~as_path:[ Bgp.As_path.Seq [ 65001 ] ]
    ~communities:[ Topology.Gao_rexford.community_provider ]
    ~next_hop:(Bgp.Ipv4.of_string_exn "10.0.0.2")
    ()

let bench_policy =
  let p = Bgp.Prefix.of_string_exn "192.0.2.0/24" in
  Test.make ~name:"policy/gao-rexford-import"
    (Staged.stage (fun () -> Bgp.Policy.apply gao_policy p policy_attrs))

let checkpoint_build =
  let graph =
    Topology.Generate.generate
      ~params:{ Topology.Generate.default_params with n_tier1 = 1; n_transit = 2; n_stub = 3 }
      (Netsim.Rng.create 23)
  in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  build

let checkpoint_router = Topology.Build.speaker checkpoint_build 1

let bench_checkpoint =
  Test.make ~name:"snapshot/checkpoint-take"
    (Staged.stage (fun () -> Snapshot.Checkpoint.take ~at:Netsim.Time.zero checkpoint_router))

(* The one cut controller of the 6-router deployment above. *)
let checkpoint_cut =
  Snapshot.Cut.create ~speakers:(Topology.Build.speaker checkpoint_build)
    checkpoint_build.Topology.Build.net

(* A whole Chandy-Lamport cut from node 0: every node checkpointed and
   every channel's marker delivered by the live engine, which runs on
   between cuts. *)
let bench_cut =
  Test.make ~name:"snapshot/cut"
    (Staged.stage (fun () ->
         Dice.Explorer.take_snapshot ~build:checkpoint_build ~cut:checkpoint_cut ~node:0 ()))

(* A cut of the converged 6-router deployment above, with one UPDATE in
   flight on its first channel: a withdrawal of a prefix nobody holds,
   so quiescing the clone delivers it to one speaker and stops.  The
   converged cut recorded nothing, so the fixture adds channel 0's
   record. *)
let spawn_snapshot =
  let snap =
    Dice.Explorer.take_snapshot ~build:checkpoint_build ~cut:checkpoint_cut ~node:0 ()
    |> Snapshot.Cut.snapshot_of
  in
  let raw =
    Bgp.Wire.encode
      (Bgp.Msg.Update
         { withdrawn = [ Bgp.Prefix.of_string_exn "203.0.113.0/24" ]; attrs = None; nlri = [] })
  in
  let ch_from, ch_to = Netsim.Network.channel_ends snap.Snapshot.Cut.topology 0 in
  let others =
    List.filter
      (fun (c : Snapshot.Cut.channel_record) ->
        (c.Snapshot.Cut.ch_from, c.Snapshot.Cut.ch_to) <> (ch_from, ch_to))
      snap.Snapshot.Cut.channels
  in
  { snap with
    Snapshot.Cut.channels = { Snapshot.Cut.ch_from; ch_to; ch_messages = [ raw ] } :: others }

(* The explorer's clone, quiesced. *)
let bench_spawn =
  Test.make ~name:"snapshot/spawn"
    (Staged.stage (fun () ->
         Snapshot.Store.run_to_quiescence (Snapshot.Store.clone spawn_snapshot)))

(* The explorer's clone of a converged gr250 cut, which a replay pays
   before its first event.  The deployment is made when the row runs
   and dropped after it: a heap that size, kept alive, would slow every
   row that allocates after it. *)
let gr250_cut () =
  let build = Topology.Build.deploy (Topology.Gao_rexford.scale_graph ~nodes:250 ~seed:42) in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let cut = Snapshot.Cut.create ~speakers:(Topology.Build.speaker build) build.Topology.Build.net in
  (build, cut, Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()))

(* Its time is mostly GC work over the deployment's heap, which
   bechamel compacts before every sample: about 12.8 us per clone
   against 1.8-2.4 us for the same clone in a plain loop, so only its
   minor words say what a clone costs. *)
let bench_spawn_250 =
  Test.make_with_resource ~name:"snapshot/spawn-250" Test.uniq
    ~allocate:(fun () ->
      let _, _, snap = gr250_cut () in
      snap)
    ~free:ignore
    (Staged.stage (fun snap -> Snapshot.Store.clone snap))

(* Every later cut of the same converged deployment, from node 0: what
   an online explorer pays per round once its speakers have been
   captured.  Its time is mostly GC work over the deployment's heap;
   its minor words are what a cut allocates. *)
let bench_cut_250 =
  Test.make_with_resource ~name:"snapshot/cut-250" Test.uniq ~allocate:gr250_cut ~free:ignore
    (Staged.stage (fun (build, cut, _) -> Dice.Explorer.take_snapshot ~build ~cut ~node:0 ()))

let solver_constraints =
  let x = Concolic.Expr.var "bench_x" ~lo:0 ~hi:65535 in
  let y = Concolic.Expr.var "bench_y" ~lo:0 ~hi:255 in
  Concolic.Expr.
    [ Eq (Add (Var y, Mul (Const 16, Var y)), Const 272);
      Lt (Var x, Const 1000);
      Not (Eq (Var x, Const 0)) ]

(* Disable memoization while timing the search itself: with the cache
   on, every iteration after the first would measure a table lookup. *)
let bench_solver =
  Test.make ~name:"solver/small-path-condition"
    (Staged.stage (fun () ->
         Concolic.Solver.set_cache_enabled false;
         let r = Concolic.Solver.solve solver_constraints in
         Concolic.Solver.set_cache_enabled true;
         r))

let bench_solver_memo =
  Test.make ~name:"solver/memo-hit"
    (Staged.stage (fun () -> Concolic.Solver.solve solver_constraints))

(* The longest path condition the demo27 handler records on node 3's
   first session over its seed inputs: what the engine hashes once per
   handler run to count distinct paths. *)
let demo27_path =
  let build = Topology.Build.deploy Topology.Demo27.graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let sp = Topology.Build.speaker build 3 in
  let peer = List.hd (sp.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors in
  let view = Dice.Sym_handler.view_of_speaker sp ~peer:peer.Bgp.Config.addr in
  let path_of input =
    let ctx = Concolic.Ctx.create input in
    (try ignore (Dice.Sym_handler.run view ctx) with Bgp.Router.Crash _ -> ());
    Concolic.Ctx.path ctx
  in
  List.fold_left
    (fun best input ->
      let path = path_of input in
      if List.length path > List.length best then path else best)
    [] (Dice.Sym_handler.seeds view)

let bench_path_signature =
  Test.make ~name:"concolic/path-signature"
    (Staged.stage (fun () -> Concolic.Engine.path_signature demo27_path))

let bench_engine_events =
  Test.make ~name:"netsim/schedule-and-run-100"
    (Staged.stage (fun () ->
         let eng = Netsim.Engine.create () in
         for i = 1 to 100 do
           ignore (Netsim.Engine.schedule eng ~after:i (fun () -> ()))
         done;
         Netsim.Engine.run eng))

(* The same with 1,000 events at a fixed shuffle of the delays 1..1000:
   most land before the latest one queued, so the queue's heap side
   orders them, which the monotone run above never reaches. *)
let shuffled_delays =
  let d = Array.init 1000 (fun i -> i + 1) in
  Netsim.Rng.shuffle (Netsim.Rng.create 1000) d;
  d

let bench_engine_shuffled =
  Test.make ~name:"netsim/schedule-and-run-shuffled-1000"
    (Staged.stage (fun () ->
         let eng = Netsim.Engine.create () in
         Array.iter
           (fun after -> ignore (Netsim.Engine.schedule eng ~after (fun () -> ())))
           shuffled_delays;
         Netsim.Engine.run eng))

(* Rows whose time is mostly GC work over their fixture's heap: their
   ns/op is printed but left out of BENCH.json, so only their minor
   words are gated. *)
let heap_bound = [ "dice/snapshot/cut-250"; "dice/snapshot/spawn-250" ]

let tests =
  Test.make_grouped ~name:"dice"
    [ bench_wire_encode; bench_wire_decode; bench_trie_lpm; bench_trie_find;
      bench_changed_prefixes; bench_decision;
      bench_policy; bench_checkpoint; bench_cut; bench_cut_250; bench_spawn; bench_spawn_250;
      bench_solver; bench_solver_memo;
      bench_path_signature; bench_engine_events; bench_engine_shuffled ]

(* Toolkit's [minor_allocated] reads [Gc.quick_stat], whose
   [minor_words] field is only refreshed at collection boundaries on
   OCaml 5 — small benchmarks read as zero.  [Gc.minor_words] accounts
   for the current minor heap too, so register a measure on top of it. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words = Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* (ns/op, minor words/op) per benchmark, sorted by name; shared with
   the [par] and [scale] sections so BENCH.json carries the same
   numbers that get printed.  Minor words expose allocator pressure —
   the zero-copy decode and the allocation-free event queue stay
   visible even when a noisy CI host blurs the wall-clock numbers. *)
let one_pass () =
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> (
        match Analyze.OLS.estimates r with
        | Some (x :: _) -> Some x
        | Some [] | None -> None)
    | None -> None
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name _ -> rows := (name, estimate times name, estimate words name) :: !rows)
    times;
  List.sort compare !rows

(* Per-benchmark minimum over independent passes: on a busy shared host
   a single OLS fit can come out several-fold inflated by scheduler
   interference, and the minimum is the standard noise-robust
   statistic for a lower-bound-style microbenchmark. *)
let passes = 3

let results () =
  let omin a b =
    match (a, b) with
    | Some a, Some b -> Some (Float.min a b)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  let merge = List.map2 (fun (n, t, w) (n', t', w') ->
      assert (String.equal n n');
      (n, omin t t', omin w w'))
  in
  let acc = ref (one_pass ()) in
  for _ = 2 to passes do
    acc := merge !acc (one_pass ())
  done;
  !acc

let print results =
  Tables.section "Bechamel micro-benchmarks (per-operation costs behind T2)";
  let cell fmt = function Some x -> Printf.sprintf fmt x | None -> "n/a" in
  let rows =
    List.map
      (fun (name, ns, words) -> [ name; cell "%.1f" ns; cell "%.1f" words ])
      results
  in
  Tables.print ~title:"per-operation cost"
    ~header:[ "benchmark"; "ns/run"; "minor words/run" ]
    rows

let run () = print (results ())
