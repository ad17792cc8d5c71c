type verdict = {
  v_node : int;
  v_property : string;
  v_ok : bool;
  v_evidence : string;
}

(* One speaker's checked config and RIB and its per-input verdicts, in
   suite order, together with each per-prefix property's failing
   prefixes and their evidence (empty maps on a healthy speaker). *)
type row = {
  r_config : Bgp.Config.t;
  r_rib : Bgp.Rib.t;
  r_failing : string Bgp.Prefix.Map.t list;
  r_verdicts : verdict list;
}

(* A memo entry: a row and the speaker's baseline verdict. *)
type entry = { e_row : row; e_baseline : verdict }

module Int_map = Map.Make (Int)

(* At most one entry per node.  The map is immutable: [record] swaps in
   a new one before the replays, which read it unlocked.  Entries are
   pure, so when two writers race (a hung campaign job's domain beside
   the next job) the last one may win. *)
type memo = entry Int_map.t Atomic.t

(* One checker's verdicts over a cut's checkpointed nodes, each with
   the digest it would cross a domain boundary as, and the failing ones
   in node order.  Which node explores is not part of it: the explorer
   leaves its own node's digest out when it reports. *)
type column = {
  c_class : Fault.fault_class;
  c_rows : (verdict * Privacy.digest) array;
  c_failing : verdict list;
}

(* Each checkpointed node's row at its capture, in checkpoint order
   (ascending ids), and the columns built from those rows. *)
type captured = {
  cp_rows : (int * row) array;
  cp_columns : column list;  (* the per-input checkers', in suite order *)
  cp_quiesced : column;  (* convergence on a shadow that quiesced *)
}

type ground_truth = {
  owner_of : Bgp.Prefix.t -> int option;
  memo : memo;
  derivations : Sym_handler.memo;
  last_captured : captured option Atomic.t;
}

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
  { owner_of; memo = Atomic.make Int_map.empty; derivations = Sym_handler.memo ();
    last_captured = Atomic.make None }

let ok node property = { v_node = node; v_property = property; v_ok = true; v_evidence = "" }

let bad node property evidence =
  { v_node = node; v_property = property; v_ok = false; v_evidence = evidence }

(* The AS that originated a route; locally-originated routes have an
   empty path and originate at this speaker. *)
let origin_asn cfg (route : Bgp.Rib.route) =
  match Bgp.As_path.origin_as route.Bgp.Rib.attrs.Bgp.Attr.as_path with
  | Some a -> a
  | None -> cfg.Bgp.Config.asn

let verdict_of property id = function
  | [] -> ok id property
  | evidence -> bad id property (String.concat "; " evidence)

let origin_authenticity gt id cfg (rib : Bgp.Rib.t) =
  verdict_of "origin-authenticity" id
    (Bgp.Prefix_trie.fold
       (fun prefix route acc ->
         match gt.owner_of prefix with
         | None -> acc
         | Some owner ->
             let origin = origin_asn cfg route in
             if origin = owner then acc
             else
               Printf.sprintf "%s originated by AS%d, owner is AS%d"
                 (Bgp.Prefix.to_string prefix) origin owner
               :: acc)
       rib.Bgp.Rib.loc [])

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

let check_whole pp id cfg rib =
  render pp id (evaluate pp id cfg rib (checked_prefixes cfg rib) Bgp.Prefix.Map.empty)

(* A checkpointed node's config and RIB in a clone: its speaker's if
   touched, else its capture's. *)
let state (cp : Snapshot.Checkpoint.t) = function
  | Some (sp : Bgp.Speaker.t) -> (sp.Bgp.Speaker.sp_config (), sp.Bgp.Speaker.sp_rib ())
  | None ->
      let cap = cp.Snapshot.Checkpoint.image in
      (cap.Bgp.Speaker.cap_config, cap.Bgp.Speaker.cap_rib)

let convergence_verdict settled id =
  match settled with
  | Snapshot.Store.Quiesced -> ok id "convergence"
  | Snapshot.Store.Oscillating -> bad id "convergence" "routing oscillation (state revisited)"
  | Snapshot.Store.Diverging -> bad id "convergence" "no quiescence within event budget"

let convergence ?budget clone =
  let v = convergence_verdict (Snapshot.Store.settle ?budget clone) in
  List.rev
    (Snapshot.Store.fold (fun cp _ acc -> v cp.Snapshot.Checkpoint.node :: acc) clone [])

type scope = Baseline | Per_input

type checker = {
  name : string;
  fault_class : Fault.fault_class;
  scope : scope;
  check : int -> Bgp.Speaker.t -> verdict;
  run : Snapshot.Store.shadow -> verdict list;
}

(* [check] is given a node id, config and RIB; the checker reads them
   off a speaker. *)
let checker name fault_class scope check =
  let check id (sp : Bgp.Speaker.t) =
    check id (sp.Bgp.Speaker.sp_config ()) (sp.Bgp.Speaker.sp_rib ())
  in
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

(* Is [r] the row of this config and RIB? *)
let current cfg rib r = cfg == r.r_config && rib == r.r_rib

let recorded entries id cfg rib =
  match Int_map.find_opt id entries with
  | Some e when current cfg rib e.e_row -> Some e
  | Some _ | None -> None

let reuses gt id (sp : Bgp.Speaker.t) =
  Option.is_some
    (recorded (Atomic.get gt.memo) id (sp.Bgp.Speaker.sp_config ()) (sp.Bgp.Speaker.sp_rib ()))

let entry_row entries id = Option.map (fun e -> e.e_row) (Int_map.find_opt id entries)

(* The row of [id] at [cfg] and [rib], from a [prior] row when only the
   RIB changed: only the prefixes whose Loc-RIB entry or candidates
   differ are evaluated again. *)
let row_of prior id cfg rib =
  let failing =
    match prior with
    | Some r when r.r_config == cfg ->
        let changed = Bgp.Rib.changed_prefixes r.r_rib rib in
        List.map2 (fun pp failing -> evaluate pp id cfg rib changed failing) per_prefix r.r_failing
    | Some _ | None ->
        let prefixes = checked_prefixes cfg rib in
        List.map (fun pp -> evaluate pp id cfg rib prefixes Bgp.Prefix.Map.empty) per_prefix
  in
  { r_config = cfg; r_rib = rib; r_failing = failing; r_verdicts = rendered id failing }

let record gt clone =
  let entries, changed =
    Snapshot.Store.fold
      (fun cp live (entries, changed) ->
        let id = cp.Snapshot.Checkpoint.node and cfg, rib = state cp live in
        let prior = entry_row entries id in
        match prior with
        | Some r when current cfg rib r -> (entries, changed)
        | Some _ | None ->
            let e =
              { e_row = row_of prior id cfg rib; e_baseline = origin_authenticity gt id cfg rib }
            in
            (Int_map.add id e entries, id :: changed))
      clone (Atomic.get gt.memo, [])
  in
  Atomic.set gt.memo entries;
  List.rev changed

let run_baseline gt clone =
  let entries = Atomic.get gt.memo in
  ( baseline gt,
    List.rev
      (Snapshot.Store.fold
         (fun cp live acc ->
           let id = cp.Snapshot.Checkpoint.node and cfg, rib = state cp live in
           (match recorded entries id cfg rib with
           | Some e -> e.e_baseline
           | None -> origin_authenticity gt id cfg rib)
           :: acc)
         clone []) )

let reported v =
  ( v,
    Privacy.digest ~node:v.v_node ~property:v.v_property ~ok:v.v_ok ~evidence:v.v_evidence )

let failing rows =
  Array.fold_right (fun (v, _) acc -> if v.v_ok then acc else v :: acc) rows []

let column c_class verdicts =
  let c_rows = Array.map reported verdicts in
  { c_class; c_rows; c_failing = failing c_rows }

let edit c = function
  | [] -> c
  | edits ->
      let rows = Array.copy c.c_rows in
      List.iter (fun (i, v) -> rows.(i) <- reported v) edits;
      { c with c_rows = rows; c_failing = failing rows }

let build rows =
  let verdicts =
    Array.fold_right
      (fun (_, r) lists -> List.map2 (fun v vs -> v :: vs) r.r_verdicts lists)
      rows
      (List.map (fun _ -> []) per_input)
  in
  { cp_rows = rows;
    cp_columns =
      List.map2 (fun (c : checker) vs -> column c.fault_class (Array.of_list vs)) per_input verdicts;
    cp_quiesced =
      column Fault.Policy_conflict
        (Array.map (fun (id, _) -> convergence_verdict Snapshot.Store.Quiesced id) rows) }

(* Are [rows] the rows of the checkpoints, node for node?  Allocates
   nothing. *)
let rows_of_checkpoints rows (cps : Snapshot.Checkpoint.t option array) =
  let n = Array.length rows in
  let rec go i k =
    if i = Array.length cps then k = n
    else
      match cps.(i) with
      | None -> go (i + 1) k
      | Some cp ->
          let cap = cp.Snapshot.Checkpoint.image in
          k < n
          && fst rows.(k) = cp.Snapshot.Checkpoint.node
          && current cap.Bgp.Speaker.cap_config cap.Bgp.Speaker.cap_rib (snd rows.(k))
          && go (i + 1) (k + 1)
  in
  go 0 0

let captured gt (snapshot : Snapshot.Cut.snapshot) =
  let cps = snapshot.Snapshot.Cut.by_number in
  match Atomic.get gt.last_captured with
  | Some c when rows_of_checkpoints c.cp_rows cps -> c
  | Some _ | None ->
      let entries = Atomic.get gt.memo in
      let row (cp : Snapshot.Checkpoint.t) =
        let id = cp.Snapshot.Checkpoint.node and cfg, rib = state cp None in
        match entry_row entries id with
        | Some r when current cfg rib r -> (id, r)
        | prior -> (id, row_of prior id cfg rib)
      in
      let c =
        build
          (Array.of_list
             (Array.fold_right
                (fun cp rows -> match cp with Some cp -> row cp :: rows | None -> rows)
                cps []))
      in
      Atomic.set gt.last_captured (Some c);
      c

let nodes c = Array.map fst c.cp_rows
let columns c = c.cp_columns
let quiesced c = c.cp_quiesced

let position c id =
  let rows = c.cp_rows in
  let rec go lo hi =
    if lo >= hi then invalid_arg (Printf.sprintf "Checks.changed: node %d not in the cut" id);
    let mid = (lo + hi) / 2 in
    let x = fst rows.(mid) in
    if x = id then mid else if x < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length rows)

let changed c clone =
  let edits =
    List.fold_right
      (fun ((cp : Snapshot.Checkpoint.t), (sp : Bgp.Speaker.t)) edits ->
        let id = cp.Snapshot.Checkpoint.node in
        let i = position c id in
        let r = snd c.cp_rows.(i) in
        let cfg = sp.Bgp.Speaker.sp_config () and rib = sp.Bgp.Speaker.sp_rib () in
        if current cfg rib r then edits
        else
          List.map2
            (fun (was, v) edits -> if v = was then edits else (i, v) :: edits)
            (List.combine r.r_verdicts (row_of (Some r) id cfg rib).r_verdicts)
            edits)
      (Snapshot.Store.touched clone)
      (List.map (fun _ -> []) per_input)
  in
  List.combine per_input edits
