(* Scale-facing correctness: the 100k-prefix trie against a naive
   oracle, RIB coherence at table size, and the property that pins the
   incremental decision process to a full recompute. *)

open Bgp

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prefix_trie at 100k entries vs a linear-scan oracle                 *)
(* ------------------------------------------------------------------ *)

let random_prefix st =
  let len = 8 + Random.State.int st 17 (* /8 .. /24 *) in
  let addr =
    Ipv4.of_octets
      (1 + Random.State.int st 223)
      (Random.State.int st 256) (Random.State.int st 256)
      (Random.State.int st 256)
  in
  Prefix.make addr len

let trie_100k_matches_naive_oracle () =
  let st = Random.State.make [| 0x5ca1e |] in
  let n = 100_000 in
  let prefixes = Array.init n (fun i -> (random_prefix st, i)) in
  let trie =
    Array.fold_left (fun t (p, v) -> Prefix_trie.add p v t) Prefix_trie.empty
      prefixes
  in
  (* Duplicates collapse: the trie's cardinal is the distinct count. *)
  let distinct =
    Array.fold_left (fun s (p, _) -> Prefix.Set.add p s) Prefix.Set.empty
      prefixes
    |> Prefix.Set.cardinal
  in
  Alcotest.(check int) "cardinal counts distinct prefixes" distinct
    (Prefix_trie.cardinal trie);
  let naive_longest addr =
    Array.fold_left
      (fun acc (p, _) ->
        if Prefix.mem addr p then
          match acc with
          | Some q when Prefix.len q >= Prefix.len p -> acc
          | _ -> Some p
        else acc)
      None prefixes
  in
  for _ = 1 to 1_000 do
    let addr =
      Ipv4.of_octets
        (1 + Random.State.int st 223)
        (Random.State.int st 256) (Random.State.int st 256)
        (Random.State.int st 256)
    in
    let got = Option.map fst (Prefix_trie.longest_match addr trie) in
    let want = naive_longest addr in
    (* Two distinct prefixes of equal length cannot both contain one
       address, so the longest match is unique and comparable. *)
    let pp_prefix = Fmt.of_to_string (fun p -> Prefix.to_string p) in
    Alcotest.(check (option (testable pp_prefix Prefix.equal)))
      (Ipv4.to_string addr) want got
  done

let rib_coherent_at_100k () =
  let peer = Router.addr_of_node 1 in
  let source =
    { Rib.peer_addr = peer; peer_as = 65002; peer_bgp_id = peer; ebgp = true;
      igp_metric = 0 }
  in
  let n = 100_000 in
  let nth_prefix i =
    Prefix.make
      (Ipv4.of_octets (10 + (i lsr 16)) ((i lsr 8) land 255) (i land 255) 0)
      24
  in
  let rib = ref Rib.empty in
  for i = 0 to n - 1 do
    let attrs = Attr.make ~as_path:[ As_path.Seq [ 65002 ] ] ~next_hop:peer () in
    let next, changed =
      Rib.adj_in_update peer (nth_prefix i) (Some { Rib.attrs; source }) !rib
    in
    assert changed;
    rib := next
  done;
  Alcotest.(check int) "adj-in holds the full table" n (Rib.total_adj_in !rib);
  Alcotest.(check int) "candidate trie covers every prefix" n
    (Prefix_trie.cardinal !rib.Rib.cands);
  (* Candidate lookup and longest-match stay exact at table size. *)
  for k = 0 to 99 do
    let i = k * 997 mod n in
    let p = nth_prefix i in
    Alcotest.(check int)
      (Prefix.to_string p ^ " has one candidate")
      1
      (List.length (Rib.candidates p !rib));
    let addr =
      Ipv4.of_octets (10 + (i lsr 16)) ((i lsr 8) land 255) (i land 255) 42
    in
    match Prefix_trie.longest_match addr !rib.Rib.cands with
    | Some (q, _) ->
        Alcotest.(check bool) "longest match is the covering /24" true
          (Prefix.equal p q)
    | None -> Alcotest.fail "longest_match missed a filled /24"
  done

(* ------------------------------------------------------------------ *)
(* Incremental decision == full recompute                              *)
(* ------------------------------------------------------------------ *)

(* A standalone router with three eBGP peers; random UPDATE/WITHDRAW
   interleavings go through [inject_update], which only re-runs the
   decision process on dirty prefixes.  The oracle recomputes every
   prefix from the candidate index with [Decision.select] — the same
   selection entry point — so any divergence means the dirty-prefix
   worklist dropped or double-counted something. *)

let local_as = 65001

let peers =
  [ (Router.addr_of_node 1, 65011); (Router.addr_of_node 2, 65012);
    (Router.addr_of_node 3, 65013) ]

let universe = Array.init 12 (fun i -> Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/16" i))

type op = { o_peer : int; o_prefix : int; o_route : (int * int * int) option }
(** [o_route = Some (lpref, med, pad)] announces, [None] withdraws. *)

let gen_ops =
  let open QCheck.Gen in
  let op =
    map3
      (fun o_peer o_prefix o_route -> { o_peer; o_prefix; o_route })
      (int_bound 2)
      (int_bound (Array.length universe - 1))
      (option (triple (int_bound 3) (int_bound 3) (int_bound 2)))
  in
  list_size (int_range 1 60) op

let print_op o =
  Printf.sprintf "{peer=%d; prefix=%d; %s}" o.o_peer o.o_prefix
    (match o.o_route with
    | None -> "withdraw"
    | Some (l, m, p) -> Printf.sprintf "announce lpref=%d med=%d pad=%d" l m p)

let apply_op r op =
  let addr, asn = List.nth peers op.o_peer in
  let prefix = universe.(op.o_prefix) in
  match op.o_route with
  | None ->
      Router.inject_update r ~from:addr
        { Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] }
  | Some (lpref, med, pad) ->
      let as_path =
        [ As_path.Seq (asn :: List.init pad (fun k -> 64900 + k)) ]
      in
      let attrs =
        Attr.make ~as_path
          ~local_pref:(Some (100 + (10 * lpref)))
          ~med:(Some med) ~next_hop:addr ()
      in
      Router.inject_update r ~from:addr
        { Msg.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }

let full_recompute rib =
  Array.to_list universe
  |> List.filter_map (fun prefix ->
         let candidates =
           Rib.candidates prefix rib
           |> List.filter (Decision.acceptable ~local_as)
         in
         Option.map
           (fun r -> (prefix, r))
           (Decision.select Decision.default_config candidates))

let incremental_matches_full =
  QCheck.Test.make ~name:"router: incremental decision == full recompute"
    ~count:200
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       gen_ops)
    (fun ops ->
      let eng = Netsim.Engine.create () in
      let net =
        Netsim.Network.create eng
          (Netsim.Network.make_topology ~nodes:[ 0; 1; 2; 3 ] ~channels:[])
          (fun _ ~src:_ _ -> ())
      in
      let cfg =
        Config.make ~asn:local_as
          ~router_id:(Router.addr_of_node 0)
          ~neighbors:
            (List.map (fun (a, asn) -> Config.neighbor a ~remote_as:asn) peers)
          ()
      in
      let r = Router.create ~net ~node:0 cfg in
      List.iter (apply_op r) ops;
      let rib = Router.rib r in
      let expected = full_recompute rib in
      let got = Prefix_trie.bindings (Router.loc_rib r) in
      List.length expected = List.length got
      && List.for_all2
           (fun (p, (want : Rib.route)) (q, (have : Rib.route)) ->
             Prefix.equal p q && want = have)
           expected got)

let suite =
  [ ("trie: 100k longest-match vs naive oracle", `Slow,
     trie_100k_matches_naive_oracle);
    ("rib: coherent at 100k prefixes", `Slow, rib_coherent_at_100k);
    qtest incremental_matches_full ]
