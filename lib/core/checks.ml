type ground_truth = { owner_of : Bgp.Prefix.t -> int option }

let ground_truth_of_graph graph =
  let owned =
    List.map
      (fun id -> (Topology.Gao_rexford.prefix_of_node id, Topology.Gao_rexford.asn_of_node id))
      (Topology.Graph.node_ids graph)
  in
  let owner_of p =
    List.find_map
      (fun (owned_prefix, asn) ->
        if Bgp.Prefix.subsumes owned_prefix p then Some asn else None)
      owned
  in
  { owner_of }

type verdict = {
  v_node : int;
  v_property : string;
  v_ok : bool;
  v_evidence : string;
}

let ok node property = { v_node = node; v_property = property; v_ok = true; v_evidence = "" }

let bad node property evidence =
  { v_node = node; v_property = property; v_ok = false; v_evidence = evidence }

(* The AS that originated a route; locally-originated routes have an
   empty path and originate at this speaker. *)
let origin_asn (sp : Bgp.Speaker.t) (route : Bgp.Rib.route) =
  match Bgp.As_path.origin_as route.Bgp.Rib.attrs.Bgp.Attr.as_path with
  | Some a -> a
  | None -> (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn

let per_router_check property f (shadow : Snapshot.Store.shadow) =
  List.map
    (fun (id, sp) ->
      match f id sp with
      | [] -> ok id property
      | evidence -> bad id property (String.concat "; " evidence))
    shadow.Snapshot.Store.sh_speakers

let origin_authenticity gt =
  per_router_check "origin-authenticity" (fun _ sp ->
      Bgp.Prefix.Map.fold
        (fun prefix route acc ->
          match gt.owner_of prefix with
          | None -> acc
          | Some owner ->
              let origin = origin_asn sp route in
              if origin = owner then acc
              else
                Printf.sprintf "%s originated by AS%d, owner is AS%d"
                  (Bgp.Prefix.to_string prefix) origin owner
                :: acc)
        (Bgp.Speaker.loc_rib sp) [])

let no_martians =
  per_router_check "no-martians" (fun _ sp ->
      Bgp.Prefix.Map.fold
        (fun prefix _ acc ->
          if Bgp.Prefix.is_martian prefix then
            Printf.sprintf "martian %s selected" (Bgp.Prefix.to_string prefix) :: acc
          else acc)
        (Bgp.Speaker.loc_rib sp) [])

let no_own_as_in_path =
  per_router_check "no-own-as-in-path" (fun _ sp ->
      let own = (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn in
      Bgp.Prefix.Map.fold
        (fun prefix route acc ->
          if Bgp.As_path.contains own route.Bgp.Rib.attrs.Bgp.Attr.as_path then
            Printf.sprintf "%s selected with own AS%d in path %s"
              (Bgp.Prefix.to_string prefix) own
              (Bgp.As_path.to_string route.Bgp.Rib.attrs.Bgp.Attr.as_path)
            :: acc
          else acc)
        (Bgp.Speaker.loc_rib sp) [])

(* Reference selection: same candidate construction as the speaker's
   own decision pass, but with specification semantics (loop check on,
   MED compared per RFC). *)
let decision_matches_spec =
  per_router_check "decision-process-spec" (fun id sp ->
      let cfg = sp.Bgp.Speaker.sp_config () in
      let dcfg : Bgp.Decision.config =
        { always_compare_med = cfg.Bgp.Config.always_compare_med }
      in
      let rib = sp.Bgp.Speaker.sp_rib () in
      let local_route prefix =
        if List.exists (Bgp.Prefix.equal prefix) cfg.Bgp.Config.networks then
          Some
            { Bgp.Rib.attrs =
                Bgp.Attr.make ~origin:Bgp.Attr.Igp
                  ~next_hop:(Bgp.Router.addr_of_node id) ();
              source = Bgp.Rib.local_source }
        else None
      in
      let prefixes =
        List.sort_uniq Bgp.Prefix.compare
          (Bgp.Rib.loc_prefixes rib @ cfg.Bgp.Config.networks)
      in
      List.filter_map
        (fun prefix ->
          let candidates =
            Bgp.Rib.candidates prefix rib
            |> List.filter (Bgp.Decision.acceptable ~local_as:cfg.Bgp.Config.asn)
          in
          let candidates =
            match local_route prefix with
            | Some r -> r :: candidates
            | None -> candidates
          in
          let reference = Bgp.Decision.best dcfg candidates in
          let actual = Bgp.Rib.loc_get prefix rib in
          match (reference, actual) with
          | None, None -> None
          | Some a, Some b when a = b -> None
          | _ ->
              Some
                (Printf.sprintf "%s: selection disagrees with the decision-process spec"
                   (Bgp.Prefix.to_string prefix)))
        prefixes)

(* Events between loc-rib fingerprint samples. *)
let sample_every = 100

let convergence ?(budget = 200_000) shadow =
  let eng = shadow.Snapshot.Store.sh_engine in
  let seen = Hashtbl.create 64 in
  let last = ref None in
  (* A revisit means the global state left a fingerprint and came back
     to it (A -> B -> A); consecutive identical samples are just an
     idle network, not oscillation. *)
  let sample () =
    let fp = Snapshot.Store.loc_rib_fingerprint shadow in
    let changed = !last <> Some fp in
    let known = Hashtbl.mem seen fp in
    Hashtbl.replace seen fp ();
    last := Some fp;
    changed && known
  in
  let rec go events revisited =
    if Netsim.Engine.pending eng = 0 then `Quiesced
    else if events >= budget then if revisited then `Oscillating else `Diverging
    else begin
      let revisited =
        if events mod sample_every = 0 then revisited || sample () else revisited
      in
      ignore (Netsim.Engine.step eng);
      go (events + 1) revisited
    end
  in
  let result = go 0 false in
  List.map
    (fun (id, _) ->
      match result with
      | `Quiesced -> ok id "convergence"
      | `Oscillating -> bad id "convergence" "routing oscillation (state revisited)"
      | `Diverging -> bad id "convergence" "no quiescence within event budget")
    shadow.Snapshot.Store.sh_speakers

type scope = Baseline | Per_input

type checker = {
  name : string;
  fault_class : Fault.fault_class;
  scope : scope;
  run : Snapshot.Store.shadow -> verdict list;
}

(* Origin authenticity is a *state* property: no import filter can
   reject a forged origin without a global registry, so running it
   against explorer-synthesized announcements would flag every node.
   It runs once per snapshot, against the unperturbed clone, where a
   violation means the hijack actually happened. *)
let standard_suite gt =
  [ { name = "origin-authenticity"; fault_class = Fault.Operator_mistake;
      scope = Baseline; run = origin_authenticity gt };
    { name = "no-martians"; fault_class = Fault.Operator_mistake;
      scope = Per_input; run = no_martians };
    { name = "no-own-as-in-path"; fault_class = Fault.Programming_error;
      scope = Per_input; run = no_own_as_in_path };
    { name = "decision-process-spec"; fault_class = Fault.Programming_error;
      scope = Per_input; run = decision_matches_spec } ]
