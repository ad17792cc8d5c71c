(* Internet-scale workload: Gao-Rexford topologies up to 1k routers
   with RIBs filled to 100k prefixes.

   Three configs share one code path so CI can gate on a cheap run
   while the checked-in headline numbers come from [full]:

     nano   100 nodes /  10k prefixes   sanity, seconds
     lite   250 nodes /  25k prefixes   CI smoke, ~2 min
     full  1000 nodes / 100k prefixes   headline, ~10 min

   Each config measures three layers:
     1. topology   - deploy + converge wall time over the full mesh
     2. explorer   - shadow executions per second on live routers
                     (reduced concolic limits: the point is end-to-end
                     throughput, not solver depth)
     3. rib micro  - a standalone router filled to N prefixes via
                     injected UPDATEs: fill rate, single-prefix
                     incremental decision latency, and longest-match
                     lookup latency over the candidate trie

   Results land in BENCH.json under scale.<config>, keyed by config
   name so a CI [lite] refresh never clobbers the checked-in [full]
   numbers.  The micro section is re-measured too so bench_check can
   gate wall-clock and allocation metrics from one fresh file. *)

module Json = Telemetry.Json

type config = {
  c_name : string;
  c_nodes : int;
  c_rib : int;
  c_explore : int;  (** how many routers to explore *)
}

let configs =
  [ { c_name = "nano"; c_nodes = 100; c_rib = 10_000; c_explore = 2 };
    { c_name = "lite"; c_nodes = 250; c_rib = 25_000; c_explore = 2 };
    { c_name = "full"; c_nodes = 1_000; c_rib = 100_000; c_explore = 1 } ]

let now = Unix.gettimeofday

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            acc
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            let acc =
              try
                Scanf.sscanf
                  (String.sub l 6 (String.length l - 6))
                  " %d kB"
                  (fun kb -> float_of_int kb /. 1024.)
              with Scanf.Scan_failure _ | Failure _ -> acc
            in
            go acc
        | _ -> go acc
      in
      go 0.

(* Distinct /24s under 10.0.0.0/7: enough room for 128k prefixes. *)
let nth_prefix i =
  Bgp.Prefix.make
    (Bgp.Ipv4.of_octets (10 + (i lsr 16)) ((i lsr 8) land 255) (i land 255) 0)
    24

let nth_addr i =
  Bgp.Ipv4.of_octets (10 + (i lsr 16)) ((i lsr 8) land 255) (i land 255) 7

(* --- layer 3: standalone router at [prefixes] table size --- *)

type rib_result = {
  fill_s : float;
  updates_per_s : float;
  update_ns : float;
  update_minor_words : float;
  lpm_ns : float;
}

let rib_micro ~prefixes =
  let eng = Netsim.Engine.create () in
  let net =
    Netsim.Network.create eng
      (Netsim.Network.make_topology ~nodes:[ 0; 1 ] ~channels:[])
      (fun _ ~src:_ _ -> ())
  in
  let peer = Bgp.Router.addr_of_node 1 in
  let cfg =
    Bgp.Config.make ~asn:65001
      ~router_id:(Bgp.Router.addr_of_node 0)
      ~neighbors:[ Bgp.Config.neighbor peer ~remote_as:65002 ]
      ()
  in
  let r = Bgp.Router.create ~net ~node:0 cfg in
  let attrs =
    Bgp.Attr.make ~as_path:[ Bgp.As_path.Seq [ 65002 ] ] ~next_hop:peer ()
  in
  (* Fill in 1000-NLRI batches, the shape of real table transfer. *)
  let t0 = now () in
  let batch = 1000 in
  let i = ref 0 in
  while !i < prefixes do
    let n = min batch (prefixes - !i) in
    let nlri = List.init n (fun k -> nth_prefix (!i + k)) in
    Bgp.Router.inject_update r ~from:peer
      { Bgp.Msg.withdrawn = []; attrs = Some attrs; nlri };
    i := !i + n
  done;
  Netsim.Engine.run ~max_events:(4 * prefixes) eng;
  let fill_s = now () -. t0 in
  (* Single-prefix churn against the full table: each injection dirties
     exactly one prefix, so this is the incremental decision process
     end to end (adj-in update, candidate lookup, selection, export). *)
  let churn = 2_000 in
  let w0 = Gc.minor_words () in
  let t1 = now () in
  for k = 0 to churn - 1 do
    let p = nth_prefix (k * 7919 mod prefixes) in
    let a =
      if k land 1 = 0 then Bgp.Attr.with_med (Some (k land 15)) attrs else attrs
    in
    Bgp.Router.inject_update r ~from:peer
      { Bgp.Msg.withdrawn = []; attrs = Some a; nlri = [ p ] }
  done;
  let t2 = now () in
  let w1 = Gc.minor_words () in
  (* Longest-match over the candidate trie at full table size. *)
  let lookups = 10_000 in
  let hit = ref 0 in
  let trie = (Bgp.Router.rib r).Bgp.Rib.cands in
  let t3 = now () in
  for k = 0 to lookups - 1 do
    let a = nth_addr (k * 4099 mod prefixes) in
    match Bgp.Prefix_trie.longest_match a trie with
    | Some _ -> incr hit
    | None -> ()
  done;
  let t4 = now () in
  if !hit <> lookups then failwith "scale: longest_match missed a filled /24";
  { fill_s;
    updates_per_s = float_of_int prefixes /. fill_s;
    update_ns = (t2 -. t1) *. 1e9 /. float_of_int churn;
    update_minor_words = (w1 -. w0) /. float_of_int churn;
    lpm_ns = (t4 -. t3) *. 1e9 /. float_of_int lookups }

(* --- layers 1+2: full topology, then explore live routers --- *)

let run_config c =
  Printf.printf "\n== scale %s: %d nodes, %d prefixes ==\n%!" c.c_name
    c.c_nodes c.c_rib;
  let t0 = now () in
  let graph = Topology.Gao_rexford.scale_graph ~nodes:c.c_nodes ~seed:42 in
  let build = Topology.Build.deploy ~seed:42 graph in
  Topology.Build.start_all build;
  let t1 = now () in
  let converged = Topology.Build.converge build in
  let t2 = now () in
  let routes = Topology.Build.total_loc_routes build in
  let sessions = Topology.Build.established_sessions build in
  Printf.printf
    "  deploy %.2fs  converge %.2fs (ok=%b)  routes=%d sessions=%d\n%!"
    (t1 -. t0) (t2 -. t1) converged routes sessions;
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let params =
    { Dice.Explorer.default_params with
      Dice.Explorer.limits =
        { Concolic.Engine.max_inputs = 12; max_branches = 24;
          solver_nodes = 20_000 };
      fuzz_extra = 4 }
  in
  let n_tier1, n_transit, _ = Topology.Gao_rexford.tiering ~nodes:c.c_nodes in
  (* One transit and one stub router: the two RIB shapes that matter. *)
  let targets =
    List.filteri (fun i _ -> i < c.c_explore) [ n_tier1; n_tier1 + n_transit ]
  in
  (* One untimed exploration first, so the timed loop starts from a
     filled verdict memo, as online exploration runs after its first
     cut: otherwise the timing is mostly that first cut's full check
     of every speaker. *)
  (match targets with
  | node :: _ -> ignore (Dice.Explorer.explore_node ~params ~build ~cut ~gt ~node ())
  | [] -> ());
  let t3 = now () in
  let shadows =
    List.fold_left
      (fun acc node ->
        let x = Dice.Explorer.explore_node ~params ~build ~cut ~gt ~node () in
        acc + x.Dice.Explorer.x_shadow_runs)
      0 targets
  in
  let t4 = now () in
  let explore_s = t4 -. t3 in
  Printf.printf "  explore %d node(s): %.2fs  shadows=%d (%.2f/s)\n%!"
    (List.length targets) explore_s shadows
    (float_of_int shadows /. explore_s);
  let rib = rib_micro ~prefixes:c.c_rib in
  Printf.printf
    "  rib %dk: fill %.2fs (%.0f upd/s)  update %.0fns (%.0f mnw)  lpm %.0fns\n%!"
    (c.c_rib / 1000) rib.fill_s rib.updates_per_s rib.update_ns
    rib.update_minor_words rib.lpm_ns;
  let rss = peak_rss_mb () in
  Printf.printf "  peak rss %.0f MB\n%!" rss;
  let f v = Json.Float (Benchio.round2 v) in
  Json.Obj
    [ ("nodes", Json.Int c.c_nodes);
      ("links", Json.Int (List.length graph.Topology.Graph.edges));
      ("sessions", Json.Int sessions);
      ("routes", Json.Int routes);
      ("converged", Json.Bool converged);
      ("deploy_s", f (t1 -. t0));
      ("converge_s", f (t2 -. t1));
      ("explore_nodes", Json.Int (List.length targets));
      ("shadows", Json.Int shadows);
      ("explore_s", f explore_s);
      ("shadows_per_s", f (float_of_int shadows /. explore_s));
      ("rib_prefixes", Json.Int c.c_rib);
      ("fill_s", f rib.fill_s);
      ("updates_per_s", f rib.updates_per_s);
      ("update_ns", f rib.update_ns);
      ("update_minor_words", f rib.update_minor_words);
      ("lpm_ns", f rib.lpm_ns);
      ("peak_rss_mb", f rss) ]

let run c =
  let result = run_config c in
  (* Fresh micro numbers ride along so bench_check gates one file. *)
  let micro = Micro.results () in
  Micro.print micro;
  let path = "BENCH.json" in
  let scale =
    let existing =
      match List.assoc_opt "scale" (Benchio.read_fields path) with
      | Some (Json.Obj fields) -> fields
      | _ -> []
    in
    if List.mem_assoc c.c_name existing then
      List.map
        (fun (k, v) -> if k = c.c_name then (k, result) else (k, v))
        existing
    else existing @ [ (c.c_name, result) ]
  in
  let micro_ns, micro_words = Par.micro_fields micro in
  Benchio.update ~path
    [ ("schema", Json.String "dice-bench/1");
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("micro_ns_per_op", micro_ns);
      ("micro_minor_words_per_op", micro_words);
      ("scale", Json.Obj scale) ];
  Printf.printf "wrote scale.%s to %s\n%!" c.c_name path
