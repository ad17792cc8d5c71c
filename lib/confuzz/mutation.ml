module J = Telemetry.Json
module P = Bgp.Policy
module C = Bgp.Config

type dir = Import | Export

type t =
  | Pref_const of { node : int; map : string; seq : int; value : int }
  | Pref_swap of
      { node : int; map_a : string; seq_a : int; map_b : string; seq_b : int }
  | Med_const of { node : int; map : string; seq : int; value : int option }
  | Action_flip of { node : int; map : string; seq : int }
  | Match_drop of { node : int; map : string; seq : int; idx : int }
  | Match_dup of { node : int; map : string; seq : int; idx : int }
  | Match_reorder of { node : int; map : string; seq : int }
  | Entry_shadow of { node : int; map : string; seq : int }
  | Community_rewrite of
      { node : int; map : string; seq : int; community : Bgp.Community.t }
  | Community_strip of { node : int; map : string; seq : int }
  | Prefix_widen of
      { node : int; map : string; seq : int; idx : int; ge : int option; le : int option }
  | Ref_dangle of { node : int; neighbor : int; dir : dir }
  | Ref_swap of { node : int; neighbor : int }
  | Originate_foreign of { node : int; prefix : Bgp.Prefix.t }
  | Network_drop of { node : int; prefix : Bgp.Prefix.t }
  | Te_pin of
      { node : int; map : string; prefix : Bgp.Prefix.t; via_asn : int; pref : int }

let node_of = function
  | Pref_const { node; _ }
  | Pref_swap { node; _ }
  | Med_const { node; _ }
  | Action_flip { node; _ }
  | Match_drop { node; _ }
  | Match_dup { node; _ }
  | Match_reorder { node; _ }
  | Entry_shadow { node; _ }
  | Community_rewrite { node; _ }
  | Community_strip { node; _ }
  | Prefix_widen { node; _ }
  | Ref_dangle { node; _ }
  | Ref_swap { node; _ }
  | Originate_foreign { node; _ }
  | Network_drop { node; _ }
  | Te_pin { node; _ } -> node

let nodes_of m = [ node_of m ]

let kind_name = function
  | Pref_const _ -> "pref-const"
  | Pref_swap _ -> "pref-swap"
  | Med_const _ -> "med-const"
  | Action_flip _ -> "action-flip"
  | Match_drop _ -> "match-drop"
  | Match_dup _ -> "match-dup"
  | Match_reorder _ -> "match-reorder"
  | Entry_shadow _ -> "entry-shadow"
  | Community_rewrite _ -> "community-rewrite"
  | Community_strip _ -> "community-strip"
  | Prefix_widen _ -> "prefix-widen"
  | Ref_dangle _ -> "ref-dangle"
  | Ref_swap _ -> "ref-swap"
  | Originate_foreign _ -> "originate-foreign"
  | Network_drop _ -> "network-drop"
  | Te_pin _ -> "te-pin"

let dir_name = function Import -> "import" | Export -> "export"

let describe = function
  | Pref_const { node; map; seq; value } ->
      Printf.sprintf "router %d: %s entry %d: set local-pref %d" node map seq value
  | Pref_swap { node; map_a; seq_a; map_b; seq_b } ->
      Printf.sprintf "router %d: swap local-pref of %s entry %d and %s entry %d"
        node map_a seq_a map_b seq_b
  | Med_const { node; map; seq; value } ->
      Printf.sprintf "router %d: %s entry %d: set med %s" node map seq
        (match value with Some v -> string_of_int v | None -> "none")
  | Action_flip { node; map; seq } ->
      Printf.sprintf "router %d: %s entry %d: flip permit/deny" node map seq
  | Match_drop { node; map; seq; idx } ->
      Printf.sprintf "router %d: %s entry %d: drop match clause %d" node map seq idx
  | Match_dup { node; map; seq; idx } ->
      Printf.sprintf "router %d: %s entry %d: duplicate match clause %d" node map
        seq idx
  | Match_reorder { node; map; seq } ->
      Printf.sprintf "router %d: %s entry %d: reorder match clauses" node map seq
  | Entry_shadow { node; map; seq } ->
      Printf.sprintf
        "router %d: %s: shadow the map behind a match-anything copy of entry %d"
        node map seq
  | Community_rewrite { node; map; seq; community } ->
      Printf.sprintf "router %d: %s entry %d: rewrite communities to %s" node map
        seq
        (Bgp.Community.to_string community)
  | Community_strip { node; map; seq } ->
      Printf.sprintf "router %d: %s entry %d: strip community sets" node map seq
  | Prefix_widen { node; map; seq; idx; ge; le } ->
      Printf.sprintf "router %d: %s entry %d: prefix clause %d bounds ge=%s le=%s"
        node map seq idx
        (match ge with Some v -> string_of_int v | None -> "-")
        (match le with Some v -> string_of_int v | None -> "-")
  | Ref_dangle { node; neighbor; dir } ->
      Printf.sprintf "router %d: neighbor #%d: typo %s map reference (dangles)"
        node neighbor (dir_name dir)
  | Ref_swap { node; neighbor } ->
      Printf.sprintf "router %d: neighbor #%d: swap import/export map references"
        node neighbor
  | Originate_foreign { node; prefix } ->
      Printf.sprintf "router %d: originate foreign prefix %s" node
        (Bgp.Prefix.to_string prefix)
  | Network_drop { node; prefix } ->
      Printf.sprintf "router %d: stop originating %s" node
        (Bgp.Prefix.to_string prefix)
  | Te_pin { node; map; prefix; via_asn; pref } ->
      Printf.sprintf
        "router %d: %s: pin %s via AS %d at local-pref %d (mis-tagged peer)" node
        map
        (Bgp.Prefix.to_string prefix)
        via_asn pref

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let to_json m =
  let base = [ ("kind", J.String (kind_name m)); ("node", J.Int (node_of m)) ] in
  let rest =
    match m with
    | Pref_const { map; seq; value; _ } ->
        [ ("map", J.String map); ("seq", J.Int seq); ("value", J.Int value) ]
    | Pref_swap { map_a; seq_a; map_b; seq_b; _ } ->
        [ ("map_a", J.String map_a); ("seq_a", J.Int seq_a);
          ("map_b", J.String map_b); ("seq_b", J.Int seq_b) ]
    | Med_const { map; seq; value; _ } ->
        [ ("map", J.String map); ("seq", J.Int seq);
          ("value", match value with Some v -> J.Int v | None -> J.Null) ]
    | Action_flip { map; seq; _ }
    | Match_reorder { map; seq; _ }
    | Entry_shadow { map; seq; _ }
    | Community_strip { map; seq; _ } ->
        [ ("map", J.String map); ("seq", J.Int seq) ]
    | Match_drop { map; seq; idx; _ } | Match_dup { map; seq; idx; _ } ->
        [ ("map", J.String map); ("seq", J.Int seq); ("idx", J.Int idx) ]
    | Community_rewrite { map; seq; community; _ } ->
        [ ("map", J.String map); ("seq", J.Int seq);
          ("community", J.String (Bgp.Community.to_string community)) ]
    | Prefix_widen { map; seq; idx; ge; le; _ } ->
        [ ("map", J.String map); ("seq", J.Int seq); ("idx", J.Int idx);
          ("ge", match ge with Some v -> J.Int v | None -> J.Null);
          ("le", match le with Some v -> J.Int v | None -> J.Null) ]
    | Ref_dangle { neighbor; dir; _ } ->
        [ ("neighbor", J.Int neighbor); ("dir", J.String (dir_name dir)) ]
    | Ref_swap { neighbor; _ } -> [ ("neighbor", J.Int neighbor) ]
    | Originate_foreign { prefix; _ } | Network_drop { prefix; _ } ->
        [ ("prefix", J.String (Bgp.Prefix.to_string prefix)) ]
    | Te_pin { map; prefix; via_asn; pref; _ } ->
        [ ("map", J.String map);
          ("prefix", J.String (Bgp.Prefix.to_string prefix));
          ("via_asn", J.Int via_asn); ("pref", J.Int pref) ]
  in
  J.Obj (base @ rest)

let ( let* ) = Result.bind

open Telemetry.Artifact

let opt_int_field name j =
  match field name j with
  | Ok J.Null -> Ok None
  | _ -> Result.map Option.some (int_field name j)

let prefix_field name j =
  let* s = string_field name j in
  Bgp.Prefix.of_string s

let decode j =
  let* kind = string_field "kind" j in
  let* node = int_field "node" j in
  let entry_target () =
    let* map = string_field "map" j in
    let* seq = int_field "seq" j in
    Ok (map, seq)
  in
  match kind with
  | "pref-const" ->
      let* map, seq = entry_target () in
      let* value = int_field "value" j in
      Ok (Pref_const { node; map; seq; value })
  | "pref-swap" ->
      let* map_a = string_field "map_a" j in
      let* seq_a = int_field "seq_a" j in
      let* map_b = string_field "map_b" j in
      let* seq_b = int_field "seq_b" j in
      Ok (Pref_swap { node; map_a; seq_a; map_b; seq_b })
  | "med-const" ->
      let* map, seq = entry_target () in
      let* value = opt_int_field "value" j in
      Ok (Med_const { node; map; seq; value })
  | "action-flip" ->
      let* map, seq = entry_target () in
      Ok (Action_flip { node; map; seq })
  | "match-drop" ->
      let* map, seq = entry_target () in
      let* idx = int_field "idx" j in
      Ok (Match_drop { node; map; seq; idx })
  | "match-dup" ->
      let* map, seq = entry_target () in
      let* idx = int_field "idx" j in
      Ok (Match_dup { node; map; seq; idx })
  | "match-reorder" ->
      let* map, seq = entry_target () in
      Ok (Match_reorder { node; map; seq })
  | "entry-shadow" ->
      let* map, seq = entry_target () in
      Ok (Entry_shadow { node; map; seq })
  | "community-rewrite" ->
      let* map, seq = entry_target () in
      let* c = string_field "community" j in
      let* community = Bgp.Community.of_string c in
      Ok (Community_rewrite { node; map; seq; community })
  | "community-strip" ->
      let* map, seq = entry_target () in
      Ok (Community_strip { node; map; seq })
  | "prefix-widen" ->
      let* map, seq = entry_target () in
      let* idx = int_field "idx" j in
      let* ge = opt_int_field "ge" j in
      let* le = opt_int_field "le" j in
      Ok (Prefix_widen { node; map; seq; idx; ge; le })
  | "ref-dangle" ->
      let* neighbor = int_field "neighbor" j in
      let* d = string_field "dir" j in
      let* dir =
        match d with
        | "import" -> Ok Import
        | "export" -> Ok Export
        | _ -> Error (Printf.sprintf "unknown dir %S" d)
      in
      Ok (Ref_dangle { node; neighbor; dir })
  | "ref-swap" ->
      let* neighbor = int_field "neighbor" j in
      Ok (Ref_swap { node; neighbor })
  | "originate-foreign" ->
      let* prefix = prefix_field "prefix" j in
      Ok (Originate_foreign { node; prefix })
  | "network-drop" ->
      let* prefix = prefix_field "prefix" j in
      Ok (Network_drop { node; prefix })
  | "te-pin" ->
      let* map = string_field "map" j in
      let* prefix = prefix_field "prefix" j in
      let* via_asn = int_field "via_asn" j in
      let* pref = int_field "pref" j in
      Ok (Te_pin { node; map; prefix; via_asn; pref })
  | other -> Error (Printf.sprintf "unknown kind %S" other)

let of_json j = Result.map_error (( ^ ) "mutation: ") (decode j)

(* ------------------------------------------------------------------ *)
(* Application                                                         *)
(* ------------------------------------------------------------------ *)

let update_map cfg name f =
  match C.find_route_map cfg name with
  | None -> Error (Printf.sprintf "route-map %s not found" name)
  | Some m ->
      let* m' = f m in
      let replaced = ref false in
      Ok
        { cfg with
          C.route_maps =
            List.map
              (fun (n, old) ->
                if String.equal n name && not !replaced then begin
                  replaced := true;
                  (n, m')
                end
                else (n, old))
              cfg.C.route_maps }

let update_entry map name seq f =
  match List.find_opt (fun (e : P.entry) -> e.P.seq = seq) map with
  | None -> Error (Printf.sprintf "route-map %s: entry %d not found" name seq)
  | Some e ->
      let* e' = f e in
      Ok (List.map (fun (x : P.entry) -> if x.P.seq = seq then e' else x) map)

let on_entry cfg name seq f =
  update_map cfg name (fun m -> update_entry m name seq f)

let min_seq map =
  List.fold_left (fun acc (e : P.entry) -> min acc e.P.seq) max_int map

let update_neighbor cfg i f =
  match List.nth_opt cfg.C.neighbors i with
  | None -> Error (Printf.sprintf "neighbor #%d not found" i)
  | Some n ->
      let* n' = f n in
      Ok
        { cfg with
          C.neighbors = List.mapi (fun k old -> if k = i then n' else old) cfg.C.neighbors }

let set_pref value (e : P.entry) =
  { e with
    P.sets =
      List.filter (function P.Set_local_pref _ -> false | _ -> true) e.P.sets
      @ [ P.Set_local_pref value ] }

let pref_of (e : P.entry) =
  List.find_map (function P.Set_local_pref v -> Some v | _ -> None) e.P.sets

let clamp_rule ge le (r : P.prefix_rule) =
  let base = Bgp.Prefix.len r.P.rule_prefix in
  let clamp v = min 32 (max base v) in
  { r with P.ge = Option.map clamp ge; le = Option.map clamp le }

let apply_config m cfg =
  match m with
  | Pref_const { map; seq; value; _ } ->
      on_entry cfg map seq (fun e -> Ok (set_pref value e))
  | Pref_swap { map_a; seq_a; map_b; seq_b; _ } ->
      let read name seq =
        match C.find_route_map cfg name with
        | None -> Error (Printf.sprintf "route-map %s not found" name)
        | Some m -> (
            match List.find_opt (fun (e : P.entry) -> e.P.seq = seq) m with
            | None -> Error (Printf.sprintf "route-map %s: entry %d not found" name seq)
            | Some e -> (
                match pref_of e with
                | Some v -> Ok v
                | None ->
                    Error
                      (Printf.sprintf "route-map %s entry %d sets no local-pref"
                         name seq)))
      in
      let* va = read map_a seq_a in
      let* vb = read map_b seq_b in
      let* cfg = on_entry cfg map_a seq_a (fun e -> Ok (set_pref vb e)) in
      on_entry cfg map_b seq_b (fun e -> Ok (set_pref va e))
  | Med_const { map; seq; value; _ } ->
      on_entry cfg map seq (fun e ->
          Ok
            { e with
              P.sets =
                List.filter (function P.Set_med _ -> false | _ -> true) e.P.sets
                @ [ P.Set_med value ] })
  | Action_flip { map; seq; _ } ->
      on_entry cfg map seq (fun e ->
          Ok
            { e with
              P.action = (match e.P.action with P.Permit -> P.Deny | P.Deny -> P.Permit) })
  | Match_drop { map; seq; idx; _ } ->
      on_entry cfg map seq (fun e ->
          if idx < 0 || idx >= List.length e.P.matches then
            Error (Printf.sprintf "entry %d has no match clause %d" seq idx)
          else Ok { e with P.matches = List.filteri (fun i _ -> i <> idx) e.P.matches })
  | Match_dup { map; seq; idx; _ } ->
      on_entry cfg map seq (fun e ->
          match List.nth_opt e.P.matches idx with
          | None -> Error (Printf.sprintf "entry %d has no match clause %d" seq idx)
          | Some m -> Ok { e with P.matches = e.P.matches @ [ m ] })
  | Match_reorder { map; seq; _ } ->
      on_entry cfg map seq (fun e ->
          if List.length e.P.matches < 2 then
            Error (Printf.sprintf "entry %d has fewer than 2 match clauses" seq)
          else Ok { e with P.matches = List.rev e.P.matches })
  | Entry_shadow { map; seq; _ } ->
      update_map cfg map (fun m ->
          match List.find_opt (fun (e : P.entry) -> e.P.seq = seq) m with
          | None -> Error (Printf.sprintf "route-map %s: entry %d not found" map seq)
          | Some e ->
              let shadow =
                { P.seq = min_seq m - 1; action = e.P.action; matches = []; sets = e.P.sets }
              in
              Ok (P.normalize (shadow :: m)))
  | Community_rewrite { map; seq; community; _ } ->
      on_entry cfg map seq (fun e ->
          let hit = ref false in
          let matches =
            List.map
              (function
                | P.Match_community _ ->
                    hit := true;
                    P.Match_community community
                | m -> m)
              e.P.matches
          in
          let sets =
            List.map
              (function
                | P.Add_community _ ->
                    hit := true;
                    P.Add_community community
                | s -> s)
              e.P.sets
          in
          if !hit then Ok { e with P.matches; sets }
          else Error (Printf.sprintf "entry %d references no community" seq))
  | Community_strip { map; seq; _ } ->
      on_entry cfg map seq (fun e ->
          let keep =
            List.filter
              (function P.Add_community _ | P.Del_community _ -> false | _ -> true)
              e.P.sets
          in
          if List.length keep = List.length e.P.sets then
            Error (Printf.sprintf "entry %d sets no community" seq)
          else Ok { e with P.sets = keep })
  | Prefix_widen { map; seq; idx; ge; le; _ } ->
      on_entry cfg map seq (fun e ->
          match List.nth_opt e.P.matches idx with
          | Some (P.Match_prefix rules) ->
              let widened = P.Match_prefix (List.map (clamp_rule ge le) rules) in
              Ok
                { e with
                  P.matches = List.mapi (fun i m -> if i = idx then widened else m) e.P.matches }
          | Some _ -> Error (Printf.sprintf "entry %d clause %d is not a prefix match" seq idx)
          | None -> Error (Printf.sprintf "entry %d has no match clause %d" seq idx))
  | Ref_dangle { neighbor; dir; _ } ->
      update_neighbor cfg neighbor (fun n ->
          match dir with
          | Import -> (
              match n.C.import_map with
              | Some m -> Ok { n with C.import_map = Some (m ^ "-TYPO") }
              | None -> Error (Printf.sprintf "neighbor #%d has no import map" neighbor))
          | Export -> (
              match n.C.export_map with
              | Some m -> Ok { n with C.export_map = Some (m ^ "-TYPO") }
              | None -> Error (Printf.sprintf "neighbor #%d has no export map" neighbor)))
  | Ref_swap { neighbor; _ } ->
      update_neighbor cfg neighbor (fun n ->
          if n.C.import_map = None && n.C.export_map = None then
            Error (Printf.sprintf "neighbor #%d references no maps" neighbor)
          else Ok { n with C.import_map = n.C.export_map; export_map = n.C.import_map })
  | Originate_foreign { prefix; _ } ->
      if List.exists (Bgp.Prefix.equal prefix) cfg.C.networks then
        Error
          (Printf.sprintf "%s is already originated" (Bgp.Prefix.to_string prefix))
      else Ok { cfg with C.networks = cfg.C.networks @ [ prefix ] }
  | Network_drop { prefix; _ } ->
      (* The repair engine's inverse of [Originate_foreign]: withdraw a
         network statement.  Not in the random catalog — a fuzzer that
         silently un-announces prefixes finds only trivial reachability
         holes. *)
      if not (List.exists (Bgp.Prefix.equal prefix) cfg.C.networks) then
        Error (Printf.sprintf "%s is not originated" (Bgp.Prefix.to_string prefix))
      else
        Ok
          { cfg with
            C.networks =
              List.filter (fun p -> not (Bgp.Prefix.equal prefix p)) cfg.C.networks }
  | Te_pin { map; prefix; via_asn; pref; _ } ->
      update_map cfg map (fun m ->
          let pin =
            P.entry (min_seq m - 1) P.Permit
              ~matches:
                [ P.Match_prefix [ P.prefix_rule ~le:32 prefix ];
                  P.Match_as_path (P.Path_neighbor_is via_asn) ]
              ~sets:
                [ P.Del_community Topology.Gao_rexford.community_customer;
                  P.Del_community Topology.Gao_rexford.community_provider;
                  P.Add_community Topology.Gao_rexford.community_peer;
                  P.Set_local_pref pref ]
          in
          Ok (P.normalize (pin :: m)))

let apply_speaker speaker m =
  let sp = speaker (node_of m) in
  let* cfg = apply_config m (sp.Bgp.Speaker.sp_config ()) in
  sp.Bgp.Speaker.sp_set_config cfg;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Seeded generation                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cx_configs : (int * Bgp.Config.t) list;
  cx_peers : (int * int list) list;
  cx_customers : (int * int list) list;
  cx_prefixes : (int * Bgp.Prefix.t) list;
}

let ctx_of_graph graph =
  let ids = Topology.Graph.node_ids graph in
  { cx_configs = List.map (fun id -> (id, Topology.Gao_rexford.config_of graph id)) ids;
    cx_peers = List.map (fun id -> (id, Topology.Graph.peers_of graph id)) ids;
    cx_customers =
      List.map (fun id -> (id, Topology.Graph.customers_of graph id)) ids;
    cx_prefixes = List.map (fun id -> (id, Topology.Gao_rexford.prefix_of_node id)) ids }

(* A stack applies iff folding it over the base configs succeeds; a
   config-less mutation target (pruned map, already-stripped entry)
   makes the whole stack inapplicable. *)
let applies ctx stack =
  let by_node = Hashtbl.create 8 in
  List.iter (fun (n, c) -> Hashtbl.replace by_node n c) ctx.cx_configs;
  List.for_all
    (fun m ->
      let n = node_of m in
      match Hashtbl.find_opt by_node n with
      | None -> false
      | Some cfg -> (
          match apply_config m cfg with
          | Ok cfg' ->
              Hashtbl.replace by_node n cfg';
              true
          | Error _ -> false))
    stack

let entries_of cfg =
  List.concat_map
    (fun (name, m) -> List.map (fun (e : P.entry) -> (name, e)) m)
    (C.referenced_maps cfg)

let communities_of ctx =
  let fresh = Bgp.Community.make 65000 999 in
  let seen =
    List.concat_map
      (fun (_, cfg) ->
        List.concat_map
          (fun (_, m) ->
            List.concat_map
              (fun (e : P.entry) ->
                List.filter_map
                  (function P.Match_community c -> Some c | _ -> None)
                  e.P.matches
                @ List.filter_map
                    (function
                      | P.Add_community c | P.Del_community c -> Some c
                      | _ -> None)
                    e.P.sets)
              m)
          cfg.C.route_maps)
      ctx.cx_configs
  in
  List.sort_uniq compare (fresh :: seen)

let rng_pick_opt rng = function [] -> None | l -> Some (Netsim.Rng.pick rng l)

(* Instantiate a TE pin on [node].  [prefix] and [via] are fixed when
   chaining onto a parent pin; a fresh pin picks a peer-role neighbor
   and, by preference, a prefix originated under that peer's customer
   cone — the only pins that can actually redirect traffic (a pin for
   a prefix the peer never exports matches nothing, which is still a
   legitimate operator error, just an inert one). *)
let te_pin_on rng ctx node ?prefix ?via () =
  let cfg = List.assoc node ctx.cx_configs in
  let peers = try List.assoc node ctx.cx_peers with Not_found -> [] in
  let via =
    match via with Some v when List.mem v peers -> Some v | Some _ -> None
    | None -> rng_pick_opt rng peers
  in
  match via with
  | None -> None
  | Some via ->
      let via_asn =
        match List.assoc_opt via ctx.cx_configs with
        | Some c -> c.C.asn
        | None -> Topology.Gao_rexford.asn_of_node via
      in
      let victim =
        match prefix with
        | Some p -> Some p
        | None -> (
            let customers_of n =
              try List.assoc n ctx.cx_customers with Not_found -> []
            in
            let prefixes_of cs =
              List.filter_map (fun c -> List.assoc_opt c ctx.cx_prefixes) cs
            in
            (* A customer both ends route to directly is the pin that
               bites: the pin then overrides [node]'s own customer
               route with the peer-learned one — the dispute-wheel
               tension.  Fall back to the via's cone, then anywhere. *)
            let shared =
              List.filter (fun c -> List.mem c (customers_of node)) (customers_of via)
            in
            match prefixes_of shared with
            | _ :: _ as l -> Some (Netsim.Rng.pick rng l)
            | [] -> (
                match prefixes_of (customers_of via) with
                | _ :: _ as l -> Some (Netsim.Rng.pick rng l)
                | [] ->
                    rng_pick_opt rng
                      (List.filter_map
                         (fun (owner, p) -> if owner <> node then Some p else None)
                         ctx.cx_prefixes)))
      in
      let map =
        List.find_map
          (fun (n : C.neighbor) ->
            if n.C.remote_as = via_asn then n.C.import_map else None)
          cfg.C.neighbors
      in
      (match (victim, map) with
      | Some prefix, Some map ->
          Some (Te_pin { node; map; prefix; via_asn; pref = 300 })
      | _ -> None)

(* Extend a parent pin chain one hop toward a dispute wheel: the next
   pin lands on the node the previous pin routes through, and once the
   chain is two pins long it prefers pointing back at the first pinned
   node — the shape of {!Dice.Inject.Policy_dispute}'s wheel. *)
let te_pin_related rng ctx parent =
  let pins =
    List.filter_map
      (function
        | Te_pin z ->
            Some (z.node, Topology.Gao_rexford.node_of_asn z.via_asn, z.prefix)
        | _ -> None)
      parent
  in
  match pins with
  | [] -> None
  | (first, _, _) :: _ -> (
      let _, last_via, prefix = List.nth pins (List.length pins - 1) in
      let pinned = List.map (fun (n, _, _) -> n) pins in
      if List.mem last_via pinned || not (List.mem_assoc last_via ctx.cx_configs)
      then None
      else
        let peers = try List.assoc last_via ctx.cx_peers with Not_found -> [] in
        let close_cycle = List.length pins >= 2 && List.mem first peers in
        let via =
          if close_cycle then Some first
          else
            match List.filter (fun p -> not (List.mem p pinned)) peers with
            | [] -> if List.mem first peers then Some first else None
            | cands -> Some (Netsim.Rng.pick rng cands)
        in
        match via with
        | None -> None
        | Some via -> te_pin_on rng ctx last_via ~prefix ~via ())

let instantiate rng ?(parent = []) ctx node cfg kind =
  let entries = entries_of cfg in
  let pick_entry () = rng_pick_opt rng entries in
  let neighbors = List.length cfg.C.neighbors in
  let pick_neighbor () =
    if neighbors = 0 then None else Some (Netsim.Rng.int rng neighbors)
  in
  match kind with
  | 0 ->
      Option.map
        (fun (map, (e : P.entry)) ->
          Pref_const
            { node; map; seq = e.P.seq;
              value = Netsim.Rng.pick rng [ 0; 50; 100; 150; 200; 250; 300 ] })
        (pick_entry ())
  | 1 -> (
      let withpref =
        List.filter (fun (_, e) -> pref_of e <> None) entries
      in
      match withpref with
      | (_ :: _ :: _) ->
          let map_a, (ea : P.entry) = Netsim.Rng.pick rng withpref in
          let rest =
            List.filter
              (fun (m, (e : P.entry)) -> not (String.equal m map_a && e.P.seq = ea.P.seq))
              withpref
          in
          Option.map
            (fun (map_b, (eb : P.entry)) ->
              Pref_swap { node; map_a; seq_a = ea.P.seq; map_b; seq_b = eb.P.seq })
            (rng_pick_opt rng rest)
      | _ -> None)
  | 2 ->
      Option.map
        (fun (map, (e : P.entry)) ->
          Med_const
            { node; map; seq = e.P.seq;
              value =
                (match Netsim.Rng.int rng 3 with
                | 0 -> None
                | 1 -> Some 0
                | _ -> Some (Netsim.Rng.pick rng [ 10; 100; 1000 ])) })
        (pick_entry ())
  | 3 ->
      Option.map
        (fun (map, (e : P.entry)) -> Action_flip { node; map; seq = e.P.seq })
        (pick_entry ())
  | 4 ->
      Option.map
        (fun (map, (e : P.entry), idx) -> Match_drop { node; map; seq = e.P.seq; idx })
        (rng_pick_opt rng
           (List.concat_map
              (fun (m, (e : P.entry)) ->
                List.mapi (fun i _ -> (m, e, i)) e.P.matches)
              entries))
  | 5 ->
      Option.map
        (fun (map, (e : P.entry), idx) -> Match_dup { node; map; seq = e.P.seq; idx })
        (rng_pick_opt rng
           (List.concat_map
              (fun (m, (e : P.entry)) ->
                List.mapi (fun i _ -> (m, e, i)) e.P.matches)
              entries))
  | 6 ->
      Option.map
        (fun (map, (e : P.entry)) -> Match_reorder { node; map; seq = e.P.seq })
        (rng_pick_opt rng
           (List.filter (fun (_, (e : P.entry)) -> List.length e.P.matches >= 2) entries))
  | 7 ->
      Option.map
        (fun (map, (e : P.entry)) -> Entry_shadow { node; map; seq = e.P.seq })
        (pick_entry ())
  | 8 ->
      let has_community (e : P.entry) =
        List.exists (function P.Match_community _ -> true | _ -> false) e.P.matches
        || List.exists (function P.Add_community _ -> true | _ -> false) e.P.sets
      in
      Option.map
        (fun (map, (e : P.entry)) ->
          Community_rewrite
            { node; map; seq = e.P.seq;
              community = Netsim.Rng.pick rng (communities_of ctx) })
        (rng_pick_opt rng (List.filter (fun (_, e) -> has_community e) entries))
  | 9 ->
      let has_set (e : P.entry) =
        List.exists
          (function P.Add_community _ | P.Del_community _ -> true | _ -> false)
          e.P.sets
      in
      Option.map
        (fun (map, (e : P.entry)) -> Community_strip { node; map; seq = e.P.seq })
        (rng_pick_opt rng (List.filter (fun (_, e) -> has_set e) entries))
  | 10 ->
      Option.map
        (fun (map, (e : P.entry), idx) ->
          Prefix_widen
            { node; map; seq = e.P.seq; idx;
              ge = Some (Netsim.Rng.pick rng [ 0; 8; 16; 24 ]);
              le = Some (Netsim.Rng.pick rng [ 24; 32 ]) })
        (rng_pick_opt rng
           (List.concat_map
              (fun (m, (e : P.entry)) ->
                List.concat
                  (List.mapi
                     (fun i c ->
                       match c with P.Match_prefix _ -> [ (m, e, i) ] | _ -> [])
                     e.P.matches))
              entries))
  | 11 ->
      Option.bind (pick_neighbor ()) (fun neighbor ->
          let dir = if Netsim.Rng.bool rng then Import else Export in
          let n = List.nth cfg.C.neighbors neighbor in
          let ref_of = function Import -> n.C.import_map | Export -> n.C.export_map in
          let dir =
            if ref_of dir <> None then Some dir
            else if ref_of Import <> None then Some Import
            else if ref_of Export <> None then Some Export
            else None
          in
          Option.map (fun dir -> Ref_dangle { node; neighbor; dir }) dir)
  | 12 ->
      Option.bind (pick_neighbor ()) (fun neighbor ->
          let n = List.nth cfg.C.neighbors neighbor in
          if n.C.import_map = None && n.C.export_map = None then None
          else Some (Ref_swap { node; neighbor }))
  | 13 ->
      Option.map
        (fun prefix -> Originate_foreign { node; prefix })
        (rng_pick_opt rng
           (List.filter_map
              (fun (owner, p) ->
                if owner <> node && not (List.exists (Bgp.Prefix.equal p) cfg.C.networks)
                then Some p
                else None)
              ctx.cx_prefixes))
  | _ -> (
      (* TE pin: prefer extending a parent pin chain toward a dispute
         wheel; otherwise start a fresh pin. *)
      match te_pin_related rng ctx parent with
      | Some m -> Some m
      | None -> te_pin_on rng ctx node ())

let n_kinds = 15

let random ~rng ?(parent = []) ctx =
  match ctx.cx_configs with
  | [] -> None
  | configs -> (
      (* An in-progress pin chain is the most promising thing in the
         pool: usually extend it rather than mutate somewhere else. *)
      let chain =
        if List.exists (function Te_pin _ -> true | _ -> false) parent
           && Netsim.Rng.chance rng 0.6
        then te_pin_related rng ctx parent
        else None
      in
      match chain with
      | Some m -> Some m
      | None ->
          let rec attempt tries =
            if tries = 0 then None
            else
              let node, cfg = Netsim.Rng.pick rng configs in
              match
                instantiate rng ~parent ctx node cfg (Netsim.Rng.int rng n_kinds)
              with
              | Some m -> Some m
              | None -> attempt (tries - 1)
          in
          attempt 8)

let targeted ~rng ctx (pt : Bgp.Clause_cov.point) =
  let { P.cs_node = node; cs_map = map } = pt.Bgp.Clause_cov.pt_site in
  match List.assoc_opt node ctx.cx_configs with
  | None -> None
  | Some cfg -> (
      match C.find_route_map cfg map with
      | None -> None
      | Some m -> (
          let entry_opt =
            List.find_opt (fun (e : P.entry) -> e.P.seq = pt.Bgp.Clause_cov.pt_seq) m
          in
          let widen idx =
            Some
              (Prefix_widen
                 { node; map; seq = pt.Bgp.Clause_cov.pt_seq; idx; ge = Some 0;
                   le = Some 32 })
          in
          let narrow idx =
            Some
              (Prefix_widen
                 { node; map; seq = pt.Bgp.Clause_cov.pt_seq; idx; ge = Some 32;
                   le = Some 32 })
          in
          let clause (e : P.entry) idx = List.nth_opt e.P.matches idx in
          match (pt.Bgp.Clause_cov.pt_what, entry_opt) with
          | P.Cov_match { idx; outcome = true }, Some e -> (
              (* Make the clause hold where it currently never does. *)
              match clause e idx with
              | Some (P.Match_prefix _) -> widen idx
              | Some (P.Match_community _) ->
                  Some
                    (Community_rewrite
                       { node; map; seq = e.P.seq;
                         community = Netsim.Rng.pick rng (communities_of ctx) })
              | Some _ | None ->
                  if List.length e.P.matches >= 2 then
                    Some
                      (Match_drop
                         { node; map; seq = e.P.seq;
                           idx = (idx + 1) mod List.length e.P.matches })
                  else None)
          | P.Cov_match { idx; outcome = false }, Some e -> (
              (* Make the clause fail at least once. *)
              match clause e idx with
              | Some (P.Match_prefix _) -> narrow idx
              | Some (P.Match_community _) ->
                  Some
                    (Community_rewrite
                       { node; map; seq = e.P.seq;
                         community = Bgp.Community.make 65000 999 })
              | Some _ | None -> None)
          | (P.Cov_action | P.Cov_set _), Some e ->
              (* The entry never decided: widen its conjunction. *)
              if e.P.matches <> [] then
                Some
                  (Match_drop
                     { node; map; seq = e.P.seq;
                       idx = Netsim.Rng.int rng (List.length e.P.matches) })
              else None
          | _ -> None))
