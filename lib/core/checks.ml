type verdict = {
  v_node : int;
  v_property : string;
  v_ok : bool;
  v_evidence : string;
}

(* One speaker's checked config and RIB, and its verdicts, one per
   [standard_suite] checker in suite order. *)
type entry = { e_config : Bgp.Config.t; e_rib : Bgp.Rib.t; e_verdicts : verdict array }

module Int_map = Map.Make (Int)

(* At most one entry per node.  The map is immutable: [record] swaps in
   a new one before replays fan out, and pool domains read it
   unlocked.  Entries are pure, so when two writers race the last one
   may win. *)
type memo = entry Int_map.t Atomic.t

type ground_truth = { owner_of : Bgp.Prefix.t -> int option; memo : memo }

(* [prefix_of_node] maps node ids one-to-one onto /24s, so at most one
   registered prefix contains a route's address: the trie's longest
   match finds it, and [subsumes] turns away routes shorter than the
   /24.  That is the answer of a first-match scan over the nodes; the
   first registration of a prefix wins, as it did in the scan. *)
let ground_truth_of_graph graph =
  let registry =
    List.fold_left
      (fun trie id ->
        let owned = Topology.Gao_rexford.prefix_of_node id in
        if Option.is_some (Bgp.Prefix_trie.find owned trie) then trie
        else Bgp.Prefix_trie.add owned (Topology.Gao_rexford.asn_of_node id) trie)
      Bgp.Prefix_trie.empty (Topology.Graph.node_ids graph)
  in
  let owner_of p =
    match Bgp.Prefix_trie.longest_match (Bgp.Prefix.addr p) registry with
    | Some (owned, asn) when Bgp.Prefix.subsumes owned p -> Some asn
    | Some _ | None -> None
  in
  { owner_of; memo = Atomic.make Int_map.empty }

let ok node property = { v_node = node; v_property = property; v_ok = true; v_evidence = "" }

let bad node property evidence =
  { v_node = node; v_property = property; v_ok = false; v_evidence = evidence }

(* The AS that originated a route; locally-originated routes have an
   empty path and originate at this speaker. *)
let origin_asn (sp : Bgp.Speaker.t) (route : Bgp.Rib.route) =
  match Bgp.As_path.origin_as route.Bgp.Rib.attrs.Bgp.Attr.as_path with
  | Some a -> a
  | None -> (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn

let verdict_of property id = function
  | [] -> ok id property
  | evidence -> bad id property (String.concat "; " evidence)

let origin_authenticity gt id sp =
  verdict_of "origin-authenticity" id
    (Bgp.Prefix.Map.fold
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

let no_martians id sp =
  verdict_of "no-martians" id
    (Bgp.Prefix.Map.fold
       (fun prefix _ acc ->
         if Bgp.Prefix.is_martian prefix then
           Printf.sprintf "martian %s selected" (Bgp.Prefix.to_string prefix) :: acc
         else acc)
       (Bgp.Speaker.loc_rib sp) [])

let no_own_as_in_path id sp =
  let own = (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn in
  verdict_of "no-own-as-in-path" id
    (Bgp.Prefix.Map.fold
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
let decision_matches_spec id sp =
  let cfg = sp.Bgp.Speaker.sp_config () in
  let dcfg : Bgp.Decision.config =
    { always_compare_med = cfg.Bgp.Config.always_compare_med }
  in
  let rib = sp.Bgp.Speaker.sp_rib () in
  let local_route prefix =
    if List.exists (Bgp.Prefix.equal prefix) cfg.Bgp.Config.networks then
      Some
        { Bgp.Rib.attrs =
            Bgp.Attr.make ~origin:Bgp.Attr.Igp ~next_hop:(Bgp.Router.addr_of_node id) ();
          source = Bgp.Rib.local_source }
    else None
  in
  let prefixes =
    List.sort_uniq Bgp.Prefix.compare (Bgp.Rib.loc_prefixes rib @ cfg.Bgp.Config.networks)
  in
  verdict_of "decision-process-spec" id
    (List.filter_map
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

let convergence ?budget shadow =
  let v =
    match Snapshot.Store.settle ?budget shadow with
    | Snapshot.Store.Quiesced -> ok
    | Snapshot.Store.Oscillating ->
        fun id p -> bad id p "routing oscillation (state revisited)"
    | Snapshot.Store.Diverging -> fun id p -> bad id p "no quiescence within event budget"
  in
  List.map (fun (id, _) -> v id "convergence") shadow.Snapshot.Store.sh_speakers

type scope = Baseline | Per_input

type checker = {
  name : string;
  fault_class : Fault.fault_class;
  scope : scope;
  check : int -> Bgp.Speaker.t -> verdict;
  run : Snapshot.Store.shadow -> verdict list;
}

let checker name fault_class scope check =
  { name; fault_class; scope; check;
    run =
      (fun shadow ->
        List.map (fun (id, sp) -> check id sp) shadow.Snapshot.Store.sh_speakers) }

(* Origin authenticity is a *state* property: no import filter can
   reject a forged origin without a global registry, so running it
   against explorer-synthesized announcements would flag every node.
   It runs once per snapshot, against the unperturbed clone, where a
   violation means the hijack actually happened. *)
let standard_suite gt =
  [ checker "origin-authenticity" Fault.Operator_mistake Baseline (origin_authenticity gt);
    checker "no-martians" Fault.Operator_mistake Per_input no_martians;
    checker "no-own-as-in-path" Fault.Programming_error Per_input no_own_as_in_path;
    checker "decision-process-spec" Fault.Programming_error Per_input
      decision_matches_spec ]

(* The entry of [sp], if its config and RIB are still the checked ones. *)
let recorded entries id (sp : Bgp.Speaker.t) =
  match Int_map.find_opt id entries with
  | Some e
    when sp.Bgp.Speaker.sp_config () == e.e_config && sp.Bgp.Speaker.sp_rib () == e.e_rib ->
      Some e
  | Some _ | None -> None

let reuses gt id sp = Option.is_some (recorded (Atomic.get gt.memo) id sp)

let record gt shadow =
  let suite = standard_suite gt in
  let entries, changed =
    List.fold_left
      (fun (entries, changed) (id, (sp : Bgp.Speaker.t)) ->
        if Option.is_some (recorded entries id sp) then (entries, changed)
        else
          let e =
            { e_config = sp.Bgp.Speaker.sp_config ();
              e_rib = sp.Bgp.Speaker.sp_rib ();
              e_verdicts = Array.of_list (List.map (fun c -> c.check id sp) suite) }
          in
          (Int_map.add id e entries, id :: changed))
      (Atomic.get gt.memo, []) shadow.Snapshot.Store.sh_speakers
  in
  Atomic.set gt.memo entries;
  List.rev changed

let run_memo gt scope shadow =
  let entries = Atomic.get gt.memo in
  let rows =
    List.map (fun (id, sp) -> (id, sp, recorded entries id sp)) shadow.Snapshot.Store.sh_speakers
  in
  List.concat
    (List.mapi
       (fun i c ->
         if c.scope <> scope then []
         else
           [ ( c,
               List.map
                 (fun (id, sp, hit) ->
                   match hit with
                   | Some e -> e.e_verdicts.(i)
                   | None -> c.check id sp)
                 rows ) ])
       (standard_suite gt))
