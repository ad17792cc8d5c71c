(* Topology graphs, Gao-Rexford policies, generation, rendering. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Inline helper module to build one fixed graph. *)
module Graph_helpers = struct
  let make () =
    Topology.Graph.make
      ~nodes:
        [ (0, Topology.Graph.Tier1); (1, Topology.Graph.Transit);
          (2, Topology.Graph.Transit); (3, Topology.Graph.Stub) ]
      ~edges:
        [ { Topology.Graph.a = 1; b = 0; rel = Topology.Graph.Customer_provider };
          { Topology.Graph.a = 2; b = 0; rel = Topology.Graph.Customer_provider };
          { Topology.Graph.a = 1; b = 2; rel = Topology.Graph.Peer_peer };
          { Topology.Graph.a = 3; b = 1; rel = Topology.Graph.Customer_provider } ]
end

let graph_roles () =
  let g = Graph_helpers.make () in
  check (Alcotest.list Alcotest.int) "providers of 1" [ 0 ] (Topology.Graph.providers_of g 1);
  check (Alcotest.list Alcotest.int) "customers of 1" [ 3 ] (Topology.Graph.customers_of g 1);
  check (Alcotest.list Alcotest.int) "peers of 1" [ 2 ] (Topology.Graph.peers_of g 1);
  check (Alcotest.list Alcotest.int) "neighbors of 1" [ 0; 2; 3 ] (Topology.Graph.neighbors g 1);
  let role_testable =
    Alcotest.testable
      (fun ppf r -> Format.pp_print_string ppf (Topology.Graph.role_to_string r))
      ( = )
  in
  check (Alcotest.option role_testable) "0 is provider of 1" (Some Topology.Graph.Provider)
    (Topology.Graph.role_of g ~self:1 ~neighbor:0);
  check (Alcotest.option role_testable) "3 is customer of 1" (Some Topology.Graph.Customer)
    (Topology.Graph.role_of g ~self:1 ~neighbor:3);
  check (Alcotest.option role_testable) "2 is peer of 1" (Some Topology.Graph.Peer)
    (Topology.Graph.role_of g ~self:1 ~neighbor:2);
  check (Alcotest.option role_testable) "no edge" None
    (Topology.Graph.role_of g ~self:3 ~neighbor:0)

let graph_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.make: self-loop at 0")
    (fun () ->
      ignore
        (Topology.Graph.make
           ~nodes:[ (0, Topology.Graph.Stub) ]
           ~edges:[ { Topology.Graph.a = 0; b = 0; rel = Topology.Graph.Peer_peer } ]));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Graph.make: duplicate edge 1-0")
    (fun () ->
      ignore
        (Topology.Graph.make
           ~nodes:[ (0, Topology.Graph.Stub); (1, Topology.Graph.Stub) ]
           ~edges:
             [ { Topology.Graph.a = 0; b = 1; rel = Topology.Graph.Peer_peer };
               { Topology.Graph.a = 1; b = 0; rel = Topology.Graph.Peer_peer } ]))

let valley_free_check () =
  let g = Graph_helpers.make () in
  (* 3 -> 1 -> 0: pure climb: valley-free *)
  Alcotest.(check bool) "climb ok" true (Topology.Gao_rexford.valley_free g [ 3; 1; 0 ]);
  (* 0 -> 1 -> 3: pure descent *)
  Alcotest.(check bool) "descent ok" true (Topology.Gao_rexford.valley_free g [ 0; 1; 3 ]);
  (* 3 -> 1 -> 2: climb then peer: ok *)
  Alcotest.(check bool) "peer at apex ok" true (Topology.Gao_rexford.valley_free g [ 3; 1; 2 ]);
  (* 0 -> 1 -> 2: descend to 1 then peer 2: a valley *)
  Alcotest.(check bool) "descend-then-peer rejected" false
    (Topology.Gao_rexford.valley_free g [ 0; 1; 2 ]);
  (* 0 -> 2 -> 1 -> 3 : descend, peer, descend -> rejected *)
  Alcotest.(check bool) "peer mid-descent rejected" false
    (Topology.Gao_rexford.valley_free g [ 0; 2; 1; 3 ])

let demo27_shape () =
  let g = Topology.Demo27.graph in
  check Alcotest.int "27 nodes" 27 (Topology.Graph.size g);
  Alcotest.(check bool) "connected" true (Topology.Graph.is_connected g);
  check Alcotest.int "three tier-1" 3 (List.length Topology.Demo27.tier1);
  check Alcotest.int "eight transit" 8 (List.length Topology.Demo27.transit);
  check Alcotest.int "sixteen stubs" 16 (List.length Topology.Demo27.stubs);
  (* tier-1 full mesh of peers *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b then
            match Topology.Graph.role_of g ~self:a ~neighbor:b with
            | Some Topology.Graph.Peer -> ()
            | _ -> Alcotest.failf "tier-1 %d-%d must peer" a b)
        Topology.Demo27.tier1)
    Topology.Demo27.tier1;
  (* every non-tier-1 has a provider *)
  List.iter
    (fun id ->
      if not (List.mem id Topology.Demo27.tier1) then
        Alcotest.(check bool)
          (Printf.sprintf "node %d has a provider" id)
          true
          (Topology.Graph.providers_of g id <> []))
    (Topology.Graph.node_ids g)

let generator_invariants =
  QCheck.Test.make ~name:"generate: connected, providers everywhere" ~count:30
    QCheck.(pair small_int (pair (int_range 1 4) (pair (int_range 0 8) (int_range 0 12))))
    (fun (seed, (t1, (tr, st))) ->
      let params =
        { Topology.Generate.default_params with n_tier1 = t1; n_transit = tr; n_stub = st }
      in
      let g = Topology.Generate.generate ~params (Netsim.Rng.create seed) in
      Topology.Graph.size g = t1 + tr + st
      && Topology.Graph.is_connected g
      && List.for_all
           (fun id ->
             Topology.Graph.tier_of g id = Topology.Graph.Tier1
             || Topology.Graph.providers_of g id <> [])
           (Topology.Graph.node_ids g))

let asn_prefix_mapping () =
  check Alcotest.int "asn roundtrip" 13
    (Topology.Gao_rexford.node_of_asn (Topology.Gao_rexford.asn_of_node 13));
  check Alcotest.string "prefix of node 300" "192.1.44.0/24"
    (Bgp.Prefix.to_string (Topology.Gao_rexford.prefix_of_node 300))

let render_outputs () =
  let g = Graph_helpers.make () in
  let dot = Topology.Render.dot g in
  Alcotest.(check bool) "dot has graph header" true
    (String.length dot > 0 && String.sub dot 0 5 = "graph");
  let ascii =
    Topology.Render.ascii
      ~annotations:[ (1, { Topology.Render.label = "exploring"; highlight = true }) ]
      g
  in
  Alcotest.(check bool) "ascii mentions annotation" true
    (let rec has i =
       i + 9 <= String.length ascii && (String.sub ascii i 9 = "exploring" || has (i + 1))
     in
     has 0)

let gadget_shapes () =
  let g = Topology.Gadget.bad_gadget () in
  check Alcotest.int "4 nodes" 4 (Topology.Graph.size g);
  List.iter
    (fun w ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "victim is customer of %d" w)
        [ Topology.Gadget.victim ]
        (Topology.Graph.customers_of g w
        |> List.filter (fun c -> c = Topology.Gadget.victim)))
    Topology.Gadget.wheel;
  Alcotest.(check bool) "embedded connected" true
    (Topology.Graph.is_connected (Topology.Gadget.embedded ()))

let deployment_converges () =
  let g = Graph_helpers.make () in
  let build = Topology.Build.deploy g in
  Topology.Build.start_all build;
  Alcotest.(check bool) "converges" true (Topology.Build.converge build);
  check Alcotest.int "full reachability" 16 (Topology.Build.total_loc_routes build);
  check Alcotest.int "all sessions up" 8 (Topology.Build.established_sessions build)

let valley_free_selected_paths () =
  (* After convergence under Gao-Rexford policies, every selected AS
     path corresponds to a valley-free node path. *)
  let g = Topology.Gadget.embedded () in
  let build = Topology.Build.deploy g in
  Topology.Build.start_all build;
  Alcotest.(check bool) "converges" true (Topology.Build.converge build);
  List.iter
    (fun (id, sp) ->
      List.iter
        (fun (_, (route : Bgp.Rib.route)) ->
          let nodes =
            id
            :: List.map Topology.Gao_rexford.node_of_asn
                 (Bgp.As_path.as_list route.Bgp.Rib.attrs.Bgp.Attr.as_path)
          in
          if not (Topology.Gao_rexford.valley_free g nodes) then
            Alcotest.failf "node %d selected a valley path [%s]" id
              (String.concat ";" (List.map string_of_int nodes)))
        (Bgp.Prefix_trie.bindings (Bgp.Speaker.loc_rib sp)))
    build.Topology.Build.speakers

let topo_file_roundtrip () =
  List.iter
    (fun g ->
      let g2 = Topology.Topo_file.parse_exn (Topology.Topo_file.render g) in
      if g <> g2 then Alcotest.fail "render/parse must be a fixpoint")
    [ Graph_helpers.make (); Topology.Demo27.graph; Topology.Gadget.embedded () ]

let topo_file_errors () =
  let expect_error text =
    match Topology.Topo_file.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "node 0 mega\n";
  expect_error "edge 0 1 friend\n";
  expect_error "nonsense\n";
  expect_error "node 0 stub\nnode 0 stub\n";
  (* duplicate node *)
  expect_error "node 0 stub\nnode 1 stub\nedge 0 1 peer\nedge 1 0 peer\n"

let topo_file_parse () =
  let g =
    Topology.Topo_file.parse_exn
      "# demo\nnode 0 tier1\nnode 1 transit\nnode 2 stub\nedge 1 0 customer\nedge 2 1 customer\n"
  in
  check Alcotest.int "three nodes" 3 (Topology.Graph.size g);
  check (Alcotest.list Alcotest.int) "1 buys from 0" [ 0 ]
    (Topology.Graph.providers_of g 1)

let suite =
  [ ("graph: roles and adjacency", `Quick, graph_roles);
    ("topo-file: roundtrip", `Quick, topo_file_roundtrip);
    ("topo-file: error reporting", `Quick, topo_file_errors);
    ("topo-file: parse", `Quick, topo_file_parse);
    ("graph: validation", `Quick, graph_validation);
    ("gao-rexford: valley-free predicate", `Quick, valley_free_check);
    ("demo27: shape", `Quick, demo27_shape);
    qtest generator_invariants;
    ("gao-rexford: asn/prefix mapping", `Quick, asn_prefix_mapping);
    ("render: dot and ascii", `Quick, render_outputs);
    ("gadget: shapes", `Quick, gadget_shapes);
    ("build: small deployment converges", `Quick, deployment_converges);
    ("build: selected paths are valley-free", `Slow, valley_free_selected_paths) ]
