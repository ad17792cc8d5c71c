type scenario =
  | Prefix_hijack of { at : int; victim : int }
  | Bogus_netmask of { at : int }
  | Policy_dispute of { cycle : int list; victim : int }
  | Loop_check_bug of { at : int }
  | Inverted_med_bug of { at : int }
  | Crash_bug of { at : int; community : Bgp.Community.t }

let describe = function
  | Prefix_hijack { at; victim } ->
      Printf.sprintf "prefix hijack: node %d originates node %d's prefix" at victim
  | Bogus_netmask { at } -> Printf.sprintf "bogus netmask: node %d announces 127.0.0.0/8" at
  | Policy_dispute { cycle; victim } ->
      Printf.sprintf "policy dispute wheel over nodes [%s] for node %d's prefix"
        (String.concat ";" (List.map string_of_int cycle))
        victim
  | Loop_check_bug { at } -> Printf.sprintf "loop-check bypass bug at node %d" at
  | Inverted_med_bug { at } -> Printf.sprintf "inverted MED comparison bug at node %d" at
  | Crash_bug { at; community } ->
      Printf.sprintf "crash bug at node %d on community %s" at
        (Bgp.Community.to_string community)

let fault_class = function
  | Prefix_hijack _ | Bogus_netmask _ -> Fault.Operator_mistake
  | Policy_dispute _ -> Fault.Policy_conflict
  | Loop_check_bug _ | Inverted_med_bug _ | Crash_bug _ -> Fault.Programming_error

let set_bug build at f =
  let sp = Topology.Build.speaker build at in
  sp.Bgp.Speaker.sp_set_bugs (f (sp.Bgp.Speaker.sp_bugs ()))

(* Prepend a high-preference entry to [map_name] in [cfg] that pins the
   victim prefix via the given peer AS. *)
let with_dispute_entry cfg ~map_name ~victim_prefix ~via_asn =
  let entry =
    Bgp.Policy.entry 5 Bgp.Policy.Permit
      ~matches:
        [ Bgp.Policy.Match_prefix [ Bgp.Policy.prefix_rule victim_prefix ];
          Bgp.Policy.Match_as_path (Bgp.Policy.Path_neighbor_is via_asn) ]
      ~sets:
        [ Bgp.Policy.Del_community Topology.Gao_rexford.community_customer;
          Bgp.Policy.Del_community Topology.Gao_rexford.community_provider;
          Bgp.Policy.Add_community Topology.Gao_rexford.community_peer;
          Bgp.Policy.Set_local_pref 300 ]
  in
  let route_maps =
    List.map
      (fun (name, entries) ->
        if String.equal name map_name then (name, entry :: entries)
        else (name, entries))
      cfg.Bgp.Config.route_maps
  in
  { cfg with Bgp.Config.route_maps }

let apply build = function
  | Prefix_hijack { at; victim } ->
      let sp = Topology.Build.speaker build at in
      let cfg = sp.Bgp.Speaker.sp_config () in
      let stolen = Topology.Gao_rexford.prefix_of_node victim in
      sp.Bgp.Speaker.sp_set_config
        { cfg with Bgp.Config.networks = cfg.Bgp.Config.networks @ [ stolen ] }
  | Bogus_netmask { at } ->
      let sp = Topology.Build.speaker build at in
      let cfg = sp.Bgp.Speaker.sp_config () in
      let martian = Bgp.Prefix.of_string_exn "127.0.0.0/8" in
      sp.Bgp.Speaker.sp_set_config
        { cfg with Bgp.Config.networks = cfg.Bgp.Config.networks @ [ martian ] }
  | Policy_dispute { cycle; victim } ->
      let n = List.length cycle in
      if n < 3 then invalid_arg "Inject: dispute cycle needs at least 3 nodes";
      List.iteri
        (fun i node ->
          let next = List.nth cycle ((i + 1) mod n) in
          (match
             Topology.Graph.role_of build.Topology.Build.graph ~self:node
               ~neighbor:next
           with
          | Some Topology.Graph.Peer -> ()
          | Some _ | None ->
              invalid_arg
                (Printf.sprintf "Inject: dispute cycle members %d and %d are not peers"
                   node next));
          let sp = Topology.Build.speaker build node in
          let cfg = sp.Bgp.Speaker.sp_config () in
          sp.Bgp.Speaker.sp_set_config
            (with_dispute_entry cfg ~map_name:"FROM-PEER"
               ~victim_prefix:(Topology.Gao_rexford.prefix_of_node victim)
               ~via_asn:(Topology.Gao_rexford.asn_of_node next)))
        cycle
  | Loop_check_bug { at } ->
      set_bug build at (fun b -> { b with Bgp.Router.skip_loop_check = true })
  | Inverted_med_bug { at } ->
      set_bug build at (fun b -> { b with Bgp.Router.invert_med = true })
  | Crash_bug { at; community } ->
      set_bug build at (fun b -> { b with Bgp.Router.crash_community = Some community })
