module J = Telemetry.Json
module P = Bgp.Policy
module C = Bgp.Config
module Scenario = Triage.Scenario

type site =
  | Policy_site of { ps_node : int; ps_map : string; ps_seq : int }
  | Network_site of { ns_node : int; ns_prefix : Bgp.Prefix.t }

let site_id = function
  | Policy_site s -> Printf.sprintf "n%d/%s/e%d" s.ps_node s.ps_map s.ps_seq
  | Network_site s ->
      Printf.sprintf "n%d/net/%s" s.ns_node (Bgp.Prefix.to_string s.ns_prefix)

let compare_site a b = String.compare (site_id a) (site_id b)

let site_to_json = function
  | Policy_site s ->
      J.Obj
        [ ("kind", J.String "policy");
          ("node", J.Int s.ps_node);
          ("map", J.String s.ps_map);
          ("seq", J.Int s.ps_seq) ]
  | Network_site s ->
      J.Obj
        [ ("kind", J.String "network");
          ("node", J.Int s.ns_node);
          ("prefix", J.String (Bgp.Prefix.to_string s.ns_prefix)) ]

type witness = {
  w_prefix : Bgp.Prefix.t;
  w_attrs_in : Bgp.Attr.t;
  w_out : Bgp.Attr.t option;
}

type suspect = {
  su_site : site;
  su_score : int;
  su_witnesses : witness list;
  su_alt_pref : int;
  su_map : P.t;
}

type evidence = {
  ev_target : Dice.Signature.t;
  ev_baseline : Dice.Signature.t list;
  ev_fault_nodes : int list;
  ev_suspects : suspect list;
}

(* The routes a fault is {e about}: inject victims and mutation targets
   named by the scenario itself, plus anything the live configs
   originate without owning it (covers hijacks applied by injection,
   which edit networks in place). *)
let scenario_prefixes (d : Scenario.deploy) =
  let inject =
    match d.Scenario.dp_inject with
    | Some (Dice.Inject.Prefix_hijack { victim; _ })
    | Some (Dice.Inject.Policy_dispute { victim; _ }) ->
        [ Topology.Gao_rexford.prefix_of_node victim ]
    | Some _ | None -> []
  in
  let mutated =
    List.filter_map
      (function
        | Confuzz.Mutation.Te_pin { prefix; _ }
        | Confuzz.Mutation.Originate_foreign { prefix; _ }
        | Confuzz.Mutation.Network_drop { prefix; _ } ->
            Some prefix
        | _ -> None)
      d.Scenario.dp_confuzz
  in
  inject @ mutated

let foreign_networks gt configs =
  List.concat_map
    (fun (node, cfg) ->
      List.filter_map
        (fun p ->
          if gt.Dice.Checks.owner_of p = Some cfg.C.asn then None
          else Some (node, p))
        cfg.C.networks)
    configs

let prefs_set_by (e : P.entry) =
  List.filter_map
    (function P.Set_local_pref v -> Some v | _ -> None)
    e.P.sets

let max_suspects = 16

let compare_witness a b =
  let c = String.compare (Bgp.Prefix.to_string a.w_prefix) (Bgp.Prefix.to_string b.w_prefix) in
  if c <> 0 then c
  else
    let c = Bgp.Attr.compare a.w_attrs_in b.w_attrs_in in
    if c <> 0 then c
    else Option.compare Bgp.Attr.compare a.w_out b.w_out

(* Witness equality is structural: [Attr.compare] is [Stdlib.compare],
   so [compare_witness] returns 0 exactly on equal witnesses.  The hash
   reads the whole witness, since [Hashtbl.hash] would stop short of
   long AS paths and chain the witnesses that differ only there. *)
module Witness_set = Hashtbl.Make (struct
  type t = witness

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

let take n l = List.filteri (fun i _ -> i < n) l

(* Only the distinct witnesses are sorted: the list may hold each one
   many times over. *)
let dedupe_witnesses ws =
  let set = Witness_set.create 64 in
  List.iter (fun w -> Witness_set.replace set w ()) ws;
  take 8 (List.sort compare_witness (Witness_set.fold (fun w () l -> w :: l) set []))

let run ?(negative = []) ~target scenario =
  match scenario with
  | Scenario.Wire _ -> Error "wire scenarios have no configuration to repair"
  | Scenario.Deploy d ->
      let graph = Scenario.graph_of d in
      let gt = Dice.Checks.ground_truth_of_graph graph in
      let contested = ref [] in
      let configs = ref [] in
      (* node -> (prefix, candidate effective local-prefs) *)
      let rib_cands : (int * (Bgp.Prefix.t * int list) list) list ref =
        ref []
      in
      let lock = Mutex.create () in
      (* The distinct witnesses of each (node, map): a dispute replay
         evaluates the same few routes tens of thousands of times. *)
      let witnesses : (int * string, unit Witness_set.t) Hashtbl.t =
        Hashtbl.create 16
      in
      let on_deployed (build : Topology.Build.t) =
        let cfgs =
          List.map
            (fun (node, sp) ->
              let cfg = sp.Bgp.Speaker.sp_config () in
              Bgp.Clause_cov.register_config ~node cfg;
              (node, cfg))
            build.Topology.Build.speakers
        in
        configs := cfgs;
        let ps =
          scenario_prefixes d @ List.map snd (foreign_networks gt cfgs)
        in
        contested :=
          List.sort_uniq
            (fun a b ->
              String.compare (Bgp.Prefix.to_string a) (Bgp.Prefix.to_string b))
            ps
      in
      let on_finished (build : Topology.Build.t) _faults =
        rib_cands :=
          List.map
            (fun (node, sp) ->
              let rib = sp.Bgp.Speaker.sp_rib () in
              ( node,
                List.map
                  (fun p ->
                    let prefs =
                      List.map
                        (fun (r : Bgp.Rib.route) ->
                          Bgp.Attr.effective_local_pref r.Bgp.Rib.attrs)
                        (Bgp.Rib.candidates p rib)
                    in
                    (p, prefs))
                  !contested ))
            build.Topology.Build.speakers
      in
      let tracer (s : P.cov_site) prefix attrs_in out =
        if List.exists (Bgp.Prefix.equal prefix) !contested then begin
          let key = (s.P.cs_node, s.P.cs_map) in
          Mutex.lock lock;
          let set =
            match Hashtbl.find_opt witnesses key with
            | Some set -> set
            | None ->
                let set = Witness_set.create 64 in
                Hashtbl.add witnesses key set;
                set
          in
          Witness_set.replace set
            { w_prefix = prefix; w_attrs_in = attrs_in; w_out = out } ();
          Mutex.unlock lock
        end
      in
      let was_enabled = Bgp.Clause_cov.enabled () in
      Bgp.Clause_cov.reset ();
      Bgp.Clause_cov.enable ();
      P.set_trace_observer (Some tracer);
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            P.set_trace_observer None;
            if not was_enabled then Bgp.Clause_cov.disable ())
          (fun () -> Scenario.run_observed ~on_deployed ~on_finished scenario)
      in
      let fault_nodes =
        List.sort_uniq Int.compare
          (List.map (fun f -> f.Dice.Fault.f_node) outcome.Scenario.o_faults)
      in
      let reproduced =
        List.exists (Dice.Signature.equal target) outcome.Scenario.o_signatures
      in
      (match outcome.Scenario.o_error with
      | Some e -> Error (Printf.sprintf "replay failed: %s" e)
      | None when not reproduced ->
          Error "replay did not reproduce the target signature"
      | None ->
          let mutated_nodes =
            List.map Confuzz.Mutation.node_of d.Scenario.dp_confuzz
          in
          let alt_pref_of node prefixes excluded =
            let prefs =
              match List.assoc_opt node !rib_cands with
              | None -> []
              | Some per_prefix ->
                  List.concat_map
                    (fun (p, prefs) ->
                      if List.exists (Bgp.Prefix.equal p) prefixes then prefs
                      else [])
                    per_prefix
            in
            let prefs = List.filter (fun v -> not (List.mem v excluded)) prefs in
            List.fold_left max 100 prefs
          in
          (* Policy suspects: group witnesses by the entry that decided
             them; a fallthrough (no deciding entry) has no config text
             to symbolize and is dropped. *)
          let policy_suspects =
            Hashtbl.fold
              (fun (node, map_name) set acc ->
                let ws = Witness_set.fold (fun w () ws -> w :: ws) set [] in
                match
                  Option.bind
                    (List.assoc_opt node !configs)
                    (fun cfg -> C.find_route_map cfg map_name)
                with
                | None -> acc
                | Some map ->
                    let by_seq = Hashtbl.create 4 in
                    List.iter
                      (fun w ->
                        match P.deciding map w.w_prefix w.w_attrs_in with
                        | None -> ()
                        | Some e ->
                            let l =
                              match Hashtbl.find_opt by_seq e.P.seq with
                              | Some l -> l
                              | None -> []
                            in
                            Hashtbl.replace by_seq e.P.seq (w :: l))
                      ws;
                    Hashtbl.fold
                      (fun seq ws acc ->
                        let action_id =
                          Bgp.Clause_cov.id_of
                            { pt_site = { cs_node = node; cs_map = map_name };
                              pt_seq = seq;
                              pt_what = Cov_action }
                        in
                        if List.mem action_id negative then acc
                        else
                          let entry =
                            List.find
                              (fun (e : P.entry) -> e.P.seq = seq)
                              map
                          in
                          let ws = dedupe_witnesses ws in
                          let prefixes =
                            List.sort_uniq Bgp.Prefix.compare
                              (List.map (fun w -> w.w_prefix) ws)
                          in
                          let sets_pref = prefs_set_by entry <> [] in
                          let score =
                            (if node = target.Dice.Signature.sg_node then 100
                             else 0)
                            + (if List.mem node fault_nodes then 50 else 0)
                            + (if List.mem node mutated_nodes then 40 else 0)
                            + (if
                                 sets_pref
                                 && target.Dice.Signature.sg_class
                                    = Dice.Fault.Policy_conflict
                               then 30
                               else 0)
                            + (10 * min 5 (List.length ws))
                          in
                          { su_site =
                              Policy_site
                                { ps_node = node; ps_map = map_name;
                                  ps_seq = seq };
                            su_score = score;
                            su_witnesses = ws;
                            su_alt_pref =
                              alt_pref_of node prefixes (prefs_set_by entry);
                            su_map = map }
                          :: acc)
                      by_seq acc)
              witnesses []
          in
          let network_suspects =
            List.map
              (fun (node, p) ->
                { su_site = Network_site { ns_node = node; ns_prefix = p };
                  su_score =
                    200
                    + (if node = target.Dice.Signature.sg_node then 100 else 0)
                    + (if List.mem node fault_nodes then 50 else 0);
                  su_witnesses = [];
                  su_alt_pref = 100;
                  su_map = [] })
              (foreign_networks gt !configs)
          in
          let suspects =
            List.sort
              (fun a b ->
                let c = Int.compare b.su_score a.su_score in
                if c <> 0 then c else compare_site a.su_site b.su_site)
              (network_suspects @ policy_suspects)
          in
          Ok
            { ev_target = target;
              ev_baseline = outcome.Scenario.o_signatures;
              ev_fault_nodes = fault_nodes;
              ev_suspects = take max_suspects suspects })
