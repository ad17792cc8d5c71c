type verdict = {
  v_node : int;
  v_property : string;
  v_ok : bool;
  v_evidence : string;
}

(* One speaker's checked config and RIB, and its verdicts: the
   baseline one, and the per-input ones in suite order together with
   each per-prefix property's failing prefixes and their evidence
   (empty maps on a healthy speaker). *)
type entry = {
  e_config : Bgp.Config.t;
  e_rib : Bgp.Rib.t;
  e_failing : string Bgp.Prefix.Map.t list;
  e_baseline : verdict;
  e_per_input : verdict list;
}

module Int_map = Map.Make (Int)

(* At most one entry per node.  The map is immutable: [record] swaps in
   a new one before the replays, which read it unlocked.  Entries are
   pure, so when two writers race (a hung campaign job's domain beside
   the next job) the last one may win. *)
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

(* The three per-input properties, prefix by prefix.  A prefix's
   evidence is a function of the node id, the config, [loc[p]] and
   [cands[p]] alone: [None] where the property holds or does not
   apply. *)
type per_prefix = {
  pp_name : string;
  pp_class : Fault.fault_class;
  pp_evidence : int -> Bgp.Config.t -> Bgp.Rib.t -> Bgp.Prefix.t -> string option;
  pp_ascending : bool;  (** evidence in ascending prefix order, else descending *)
}

let martian_evidence _id _cfg rib prefix =
  match Bgp.Rib.loc_get prefix rib with
  | Some _ when Bgp.Prefix.is_martian prefix ->
      Some (Printf.sprintf "martian %s selected" (Bgp.Prefix.to_string prefix))
  | Some _ | None -> None

let own_as_evidence _id cfg rib prefix =
  let own = cfg.Bgp.Config.asn in
  match Bgp.Rib.loc_get prefix rib with
  | Some route when Bgp.As_path.contains own route.Bgp.Rib.attrs.Bgp.Attr.as_path ->
      Some
        (Printf.sprintf "%s selected with own AS%d in path %s" (Bgp.Prefix.to_string prefix)
           own
           (Bgp.As_path.to_string route.Bgp.Rib.attrs.Bgp.Attr.as_path))
  | Some _ | None -> None

(* Reference selection: same candidate construction as the speaker's
   own decision pass, but with specification semantics (loop check on,
   MED compared per RFC).  It applies to the selected prefixes and the
   configured networks; a prefix with candidates but neither is not
   checked. *)
let spec_evidence id cfg rib prefix =
  let networked = List.exists (Bgp.Prefix.equal prefix) cfg.Bgp.Config.networks in
  let actual = Bgp.Rib.loc_get prefix rib in
  if Option.is_none actual && not networked then None
  else
    let dcfg : Bgp.Decision.config =
      { always_compare_med = cfg.Bgp.Config.always_compare_med }
    in
    let candidates =
      Bgp.Rib.candidates prefix rib
      |> List.filter (Bgp.Decision.acceptable ~local_as:cfg.Bgp.Config.asn)
    in
    let candidates =
      if networked then
        { Bgp.Rib.attrs =
            Bgp.Attr.make ~origin:Bgp.Attr.Igp ~next_hop:(Bgp.Router.addr_of_node id) ();
          source = Bgp.Rib.local_source }
        :: candidates
      else candidates
    in
    match (Bgp.Decision.best dcfg candidates, actual) with
    | None, None -> None
    | Some a, Some b when a = b -> None
    | _ ->
        Some
          (Printf.sprintf "%s: selection disagrees with the decision-process spec"
             (Bgp.Prefix.to_string prefix))

let per_prefix =
  [ { pp_name = "no-martians"; pp_class = Fault.Operator_mistake;
      pp_evidence = martian_evidence; pp_ascending = false };
    { pp_name = "no-own-as-in-path"; pp_class = Fault.Programming_error;
      pp_evidence = own_as_evidence; pp_ascending = false };
    { pp_name = "decision-process-spec"; pp_class = Fault.Programming_error;
      pp_evidence = spec_evidence; pp_ascending = true } ]

(* The one evaluation of a per-prefix property: [failing] (each failing
   prefix's evidence) brought up to date on [prefixes]. *)
let evaluate pp id cfg rib prefixes failing =
  List.fold_left
    (fun failing prefix ->
      match pp.pp_evidence id cfg rib prefix with
      | Some evidence -> Bgp.Prefix.Map.add prefix evidence failing
      | None -> Bgp.Prefix.Map.remove prefix failing)
    failing prefixes

(* Every prefix a per-prefix property can fail on. *)
let checked_prefixes cfg rib =
  List.sort_uniq Bgp.Prefix.compare (Bgp.Rib.loc_prefixes rib @ cfg.Bgp.Config.networks)

let render pp id failing =
  let evidence = Bgp.Prefix.Map.fold (fun _ e acc -> e :: acc) failing [] in
  verdict_of pp.pp_name id (if pp.pp_ascending then List.rev evidence else evidence)

let rendered id failing = List.map2 (fun pp f -> render pp id f) per_prefix failing

let check_whole pp id (sp : Bgp.Speaker.t) =
  let cfg = sp.Bgp.Speaker.sp_config () and rib = sp.Bgp.Speaker.sp_rib () in
  render pp id (evaluate pp id cfg rib (checked_prefixes cfg rib) Bgp.Prefix.Map.empty)

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
let baseline gt =
  checker "origin-authenticity" Fault.Operator_mistake Baseline (origin_authenticity gt)

let per_input =
  List.map (fun pp -> checker pp.pp_name pp.pp_class Per_input (check_whole pp)) per_prefix

let standard_suite gt = baseline gt :: per_input

(* Is [e] the entry of [sp]'s current config and RIB? *)
let current (sp : Bgp.Speaker.t) e =
  sp.Bgp.Speaker.sp_config () == e.e_config && sp.Bgp.Speaker.sp_rib () == e.e_rib

let recorded entries id sp =
  match Int_map.find_opt id entries with
  | Some e when current sp e -> Some e
  | Some _ | None -> None

let reuses gt id sp = Option.is_some (recorded (Atomic.get gt.memo) id sp)

(* The per-prefix properties' failing prefixes for [sp], from its
   previous entry when only its RIB changed: only the prefixes whose
   Loc-RIB entry or candidates differ are evaluated again. *)
let failing_of prior id (sp : Bgp.Speaker.t) =
  let cfg = sp.Bgp.Speaker.sp_config () and rib = sp.Bgp.Speaker.sp_rib () in
  match prior with
  | Some e when e.e_config == cfg ->
      let changed = Bgp.Rib.changed_prefixes e.e_rib rib in
      List.map2
        (fun pp failing -> evaluate pp id cfg rib changed failing)
        per_prefix e.e_failing
  | Some _ | None ->
      let prefixes = checked_prefixes cfg rib in
      List.map (fun pp -> evaluate pp id cfg rib prefixes Bgp.Prefix.Map.empty) per_prefix

let record gt shadow =
  let entries, changed =
    List.fold_left
      (fun (entries, changed) (id, (sp : Bgp.Speaker.t)) ->
        let prior = Int_map.find_opt id entries in
        match prior with
        | Some e when current sp e -> (entries, changed)
        | Some _ | None ->
            let failing = failing_of prior id sp in
            let e =
              { e_config = sp.Bgp.Speaker.sp_config ();
                e_rib = sp.Bgp.Speaker.sp_rib ();
                e_failing = failing;
                e_baseline = origin_authenticity gt id sp;
                e_per_input = rendered id failing }
            in
            (Int_map.add id e entries, id :: changed))
      (Atomic.get gt.memo, []) shadow.Snapshot.Store.sh_speakers
  in
  Atomic.set gt.memo entries;
  List.rev changed

let run_memo gt scope shadow =
  let entries = Atomic.get gt.memo in
  let speakers = shadow.Snapshot.Store.sh_speakers in
  match scope with
  | Baseline ->
      let c = baseline gt in
      [ ( c,
          List.map
            (fun (id, sp) ->
              match recorded entries id sp with
              | Some e -> e.e_baseline
              | None -> c.check id sp)
            speakers ) ]
  | Per_input ->
      let rows =
        List.map
          (fun (id, sp) ->
            match recorded entries id sp with
            | Some e -> e.e_per_input
            | None -> rendered id (failing_of (Int_map.find_opt id entries) id sp))
          speakers
      in
      List.mapi (fun i c -> (c, List.map (fun row -> List.nth row i) rows)) per_input
