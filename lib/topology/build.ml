type t = {
  graph : Graph.t;
  engine : Netsim.Engine.t;
  net : string Netsim.Network.t;
  speakers : (int * Bgp.Speaker.t) list;
  by_number : Bgp.Speaker.t array;
}

let deploy ?(seed = 42) ?(sparrow_nodes = []) graph =
  let engine = Netsim.Engine.create ~seed () in
  let edges = graph.Graph.edges in
  let topology =
    Netsim.Network.make_topology ~nodes:(Graph.node_ids graph)
      ~channels:(List.concat_map (fun (e : Graph.edge) -> [ (e.a, e.b); (e.b, e.a) ]) edges)
  in
  (* The link models draw from the generator split after the network's,
     one per edge, and the network splits each channel's in edge order,
     a->b before b->a. *)
  let links () =
    let link_rng = Netsim.Rng.split (Netsim.Engine.rng engine) in
    List.concat_map
      (fun (e : Graph.edge) ->
        let link = Generate.link_model link_rng graph e.a e.b in
        [ (e.a, e.b, link); (e.b, e.a, link) ])
      edges
  in
  let net =
    Netsim.Network.create ~label:"live" ~links engine topology (fun _ ~src:_ _ -> ())
  in
  let speakers =
    List.map
      (fun id ->
        let cfg = Gao_rexford.config_of graph id in
        let sp =
          if List.mem id sparrow_nodes then
            Bgp.Sparrow.speaker (Bgp.Sparrow.create ~net ~node:id cfg)
          else Bgp.Speaker.of_router (Bgp.Router.create ~net ~node:id cfg)
        in
        (id, sp))
      (Graph.node_ids graph)
  in
  (* The topology numbers the nodes in ascending id order. *)
  let by_number =
    Array.of_list (List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) speakers))
  in
  { graph; engine; net; speakers; by_number }

let speaker t id =
  match Netsim.Network.node_number (Netsim.Network.topology t.net) id with
  | -1 -> invalid_arg (Printf.sprintf "Build.speaker: unknown node %d" id)
  | i -> t.by_number.(i)

let start_all t = List.iter (fun (_, sp) -> sp.Bgp.Speaker.sp_start ()) t.speakers

let run_for t span =
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now t.engine) span) t.engine

let loc_rib_snapshot t =
  List.map
    (fun (id, sp) ->
      let entries =
        Bgp.Prefix_trie.fold
          (fun p (route : Bgp.Rib.route) acc ->
            let via =
              if Bgp.Rib.is_local route then -1
              else Bgp.Router.node_of_addr route.Bgp.Rib.source.Bgp.Rib.peer_addr
            in
            (p, via) :: acc)
          (Bgp.Speaker.loc_rib sp) []
      in
      (id, List.rev entries))
    t.speakers

let total_updates_sent t =
  List.fold_left
    (fun acc (_, sp) -> acc + Netsim.Stats.get (sp.Bgp.Speaker.sp_stats ()) "tx_update")
    0 t.speakers

(* Quiescence = selections stable over a whole window AND no UPDATE
   traffic during it; comparing snapshots alone can alias when an
   oscillation's period lines up with the window. *)
let converge t =
  let window = Netsim.Time.span_sec 30. in
  let timeout = Netsim.Time.span_sec 600. in
  let deadline = Netsim.Time.add (Netsim.Engine.now t.engine) timeout in
  let rec go previous sent_before =
    if Netsim.Time.(deadline <= Netsim.Engine.now t.engine) then false
    else begin
      run_for t window;
      let current = loc_rib_snapshot t in
      let sent_now = total_updates_sent t in
      if current = previous && sent_now = sent_before then true
      else go current sent_now
    end
  in
  go (loc_rib_snapshot t) (total_updates_sent t)

let total_loc_routes t =
  List.fold_left
    (fun acc (_, sp) -> acc + Bgp.Prefix_trie.cardinal (Bgp.Speaker.loc_rib sp))
    0 t.speakers

let established_sessions t =
  List.fold_left
    (fun acc (_, sp) -> acc + List.length (sp.Bgp.Speaker.sp_established ()))
    0 t.speakers
