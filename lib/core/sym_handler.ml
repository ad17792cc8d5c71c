open Concolic

type view = {
  sh_node : int;
  sh_config : Bgp.Config.t;
  sh_peer : Bgp.Config.neighbor;
  sh_bugs : Bgp.Router.bugs;
  sh_universe : Bgp.Community.t list;
  sh_loc_rib : Bgp.Rib.route Bgp.Prefix_trie.t;
  sh_asn_lo : int;
  sh_asn_hi : int;
}

(* ASN bounds: everything the node can name (itself, neighbors, ASNs in
   policies) plus margin for "an AS nobody configured" — hijackers. *)
let asn_bounds (cfg : Bgp.Config.t) =
  let mentioned =
    cfg.Bgp.Config.asn
    :: List.map (fun (n : Bgp.Config.neighbor) -> n.Bgp.Config.remote_as)
         cfg.Bgp.Config.neighbors
  in
  let policy_asns =
    List.concat_map
      (fun (_, entries) ->
        List.concat_map
          (fun (e : Bgp.Policy.entry) ->
            List.filter_map
              (function
                | Bgp.Policy.Match_as_path (Bgp.Policy.Path_contains a)
                | Bgp.Policy.Match_as_path (Bgp.Policy.Path_originated_by a)
                | Bgp.Policy.Match_as_path (Bgp.Policy.Path_neighbor_is a) ->
                    Some a
                | Bgp.Policy.Match_as_path
                    (Bgp.Policy.Path_length_at_most _ | Bgp.Policy.Path_length_at_least _)
                | Bgp.Policy.Match_prefix _ | Bgp.Policy.Match_community _
                | Bgp.Policy.Match_origin _ | Bgp.Policy.Match_next_hop _ -> None)
              e.Bgp.Policy.matches)
          entries)
      cfg.Bgp.Config.route_maps
  in
  let all = mentioned @ policy_asns in
  let lo = List.fold_left min (List.hd all) (List.tl all) in
  let hi = List.fold_left max (List.hd all) (List.tl all) in
  (max 1 (lo - 2), min 0xFFFF (hi + 2))

let make_view ~node ~cfg ~bugs ~loc_rib ~peer =
  match Bgp.Config.find_neighbor cfg peer with
  | None -> invalid_arg "Sym_handler.view: unknown peer"
  | Some n ->
      let lo, hi = asn_bounds cfg in
      { sh_node = node;
        sh_config = cfg;
        sh_peer = n;
        sh_bugs = bugs;
        sh_universe = Sym_route.universe cfg bugs;
        sh_loc_rib = loc_rib;
        sh_asn_lo = lo;
        sh_asn_hi = hi }

let view_of_speaker (sp : Bgp.Speaker.t) ~peer =
  make_view ~node:sp.Bgp.Speaker.sp_node
    ~cfg:(sp.Bgp.Speaker.sp_config ())
    ~bugs:(sp.Bgp.Speaker.sp_bugs ())
    ~loc_rib:(Bgp.Speaker.loc_rib sp) ~peer

let view_of_capture (cap : Bgp.Speaker.capture) ~peer =
  make_view ~node:cap.Bgp.Speaker.cap_node ~cfg:cap.Bgp.Speaker.cap_config
    ~bugs:cap.Bgp.Speaker.cap_bugs ~loc_rib:cap.Bgp.Speaker.cap_rib.Bgp.Rib.loc ~peer

type outcome =
  | Malformed
  | Withdrawal of { had_route : bool }
  | Rejected_loop
  | Rejected_policy
  | Accepted of { preferred : bool }

let outcome_to_string = function
  | Malformed -> "malformed"
  | Withdrawal { had_route } ->
      if had_route then "withdrawal-of-known-route" else "withdrawal-of-unknown-route"
  | Rejected_loop -> "rejected-loop"
  | Rejected_policy -> "rejected-policy"
  | Accepted { preferred } ->
      if preferred then "accepted-preferred" else "accepted-not-preferred"

let concrete_prefix (sr : Sym_route.t) =
  Bgp.Prefix.make
    (Bgp.Ipv4.of_octets (Cval.to_int sr.Sym_route.sr_prefix_a)
       (Cval.to_int sr.Sym_route.sr_prefix_b)
       (Cval.to_int sr.Sym_route.sr_prefix_c)
       0)
    (Cval.to_int sr.Sym_route.sr_prefix_len)

(* The preference mirror: compare the (symbolic) imported route against
   the node's current best for the same prefix, recording one or two
   branches per decision step — the paper's symbolic route-selection
   condition. *)
let preferred_over_best view ctx (sr : Sym_route.t) =
  match Bgp.Prefix_trie.find (concrete_prefix sr) view.sh_loc_rib with
  | None -> true (* no competitor: new route is best *)
  | Some best when Bgp.Rib.is_local best ->
      (* Local routes hold administrative weight; nothing from a peer
         displaces them. *)
      false
  | Some best ->
      let best_attrs = best.Bgp.Rib.attrs in
      let best_lp = Bgp.Attr.effective_local_pref best_attrs in
      let best_len = Bgp.As_path.length best_attrs.Bgp.Attr.as_path in
      let best_origin = Bgp.Attr.origin_code best_attrs.Bgp.Attr.origin in
      let best_med = Option.value best_attrs.Bgp.Attr.med ~default:0 in
      let lp = sr.Sym_route.sr_local_pref in
      if Ctx.branch ctx (Cval.gt lp (Cval.concrete best_lp)) then true
      else if Ctx.branch ctx (Cval.lt lp (Cval.concrete best_lp)) then false
      else if Ctx.branch ctx (Cval.lt sr.Sym_route.sr_path_len (Cval.concrete best_len))
      then true
      else if Ctx.branch ctx (Cval.gt sr.Sym_route.sr_path_len (Cval.concrete best_len))
      then false
      else if Ctx.branch ctx (Cval.lt sr.Sym_route.sr_origin (Cval.concrete best_origin))
      then true
      else if Ctx.branch ctx (Cval.gt sr.Sym_route.sr_origin (Cval.concrete best_origin))
      then false
      else begin
        (* MED: compared only against a best route from the same
           neighboring AS (unless always-compare-med). *)
        let same_as =
          match Bgp.As_path.neighbor_as best_attrs.Bgp.Attr.as_path with
          | Some nas ->
              Ctx.branch ctx (Cval.eq_const sr.Sym_route.sr_neighbor_as nas)
          | None -> false
        in
        if view.sh_config.Bgp.Config.always_compare_med || same_as then
          let med_wins =
            if view.sh_bugs.Bgp.Router.invert_med then
              Ctx.branch ctx (Cval.gt sr.Sym_route.sr_med (Cval.concrete best_med))
            else Ctx.branch ctx (Cval.lt sr.Sym_route.sr_med (Cval.concrete best_med))
          in
          med_wins
        else
          (* Deterministic concrete tie-break (router ids are not
             symbolic): keep the incumbent. *)
          false
      end

let run view ctx =
  let sr =
    Sym_route.read ctx ~asn_lo:view.sh_asn_lo ~asn_hi:view.sh_asn_hi
      ~universe_size:(List.length view.sh_universe)
  in
  (* 1. Withdrawals first: they carry no attributes, so none of the
     attribute-level validation below applies. *)
  if Ctx.branch ctx (Cval.eq_const sr.Sym_route.sr_withdraw 1) then
    Withdrawal
      { had_route = Bgp.Prefix_trie.mem (concrete_prefix sr) view.sh_loc_rib }
  (* 2. Wire-level validation (mirrors the codec). *)
  else if Ctx.branch ctx (Cval.ne sr.Sym_route.sr_malform (Cval.concrete 0)) then
    Malformed
  else if Ctx.branch ctx (Cval.ge sr.Sym_route.sr_origin (Cval.concrete 3)) then
    Malformed
  else begin
    (* 3. Seeded crash bug (community handler). *)
    (match view.sh_bugs.Bgp.Router.crash_community with
    | Some c -> (
        match Sym_route.community_index view.sh_universe c with
        | Some idx ->
            if Ctx.branch ctx (Cval.eq_const sr.Sym_route.sr_community idx) then
              raise
                (Bgp.Router.Crash
                   (Printf.sprintf "community handler crash on %s"
                      (Bgp.Community.to_string c)))
        | None -> ())
    | None -> ());
    (* 4. AS-path loop check (skipped by the seeded loop bug). *)
    if
      (not view.sh_bugs.Bgp.Router.skip_loop_check)
      && Ctx.branch ctx (Cval.eq_const sr.Sym_route.sr_contains_self 1)
    then Rejected_loop
    else begin
      (* 5. eBGP import: LOCAL_PREF from the wire is ignored. *)
      let ebgp = view.sh_peer.Bgp.Config.remote_as <> view.sh_config.Bgp.Config.asn in
      let sr =
        if ebgp then { sr with Sym_route.sr_local_pref = Cval.concrete 100 } else sr
      in
      (* 6. Import route map — the configuration interpreter. *)
      let policy = Bgp.Config.import_policy view.sh_config view.sh_peer in
      match
        Sym_policy.eval ctx ~own_asn:view.sh_config.Bgp.Config.asn
          ~universe:view.sh_universe policy sr
      with
      | Sym_policy.Denied -> Rejected_policy
      | Sym_policy.Accepted sr ->
          Accepted { preferred = preferred_over_best view ctx sr }
    end
  end

(* ------------------------------------------------------------------ *)
(* Concretization                                                      *)
(* ------------------------------------------------------------------ *)

let lookup_field view input name =
  let specs =
    Sym_route.field_specs ~asn_lo:view.sh_asn_lo ~asn_hi:view.sh_asn_hi
      ~universe_size:(List.length view.sh_universe)
  in
  let _, lo, hi, default =
    List.find (fun (n, _, _, _) -> String.equal n name) specs
  in
  match List.assoc_opt name input with
  | Some v -> max lo (min hi v)
  | None -> default

let update_of_input view input =
  let f = lookup_field view input in
  let own = view.sh_config.Bgp.Config.asn in
  let prefix =
    Bgp.Prefix.make
      (Bgp.Ipv4.of_octets (f "nlri_a") (f "nlri_b") (f "nlri_c") 0)
      (f "nlri_len")
  in
  if f "withdraw" = 1 then
    { Bgp.Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] }
  else
  let path_len = f "path_len" in
  let origin_as = f "origin_as" in
  let neighbor_as = f "neighbor_as" in
  let contains_self = f "contains_self" = 1 in
  let path =
    if path_len <= 1 then [ origin_as ]
    else begin
      let middle_len = path_len - 2 in
      let middle =
        List.init middle_len (fun i ->
            if contains_self && i = 0 then own else origin_as)
      in
      (neighbor_as :: middle) @ [ origin_as ]
    end
  in
  let path = if contains_self && path_len <= 1 then [ own; origin_as ] else path in
  let origin_code = min 2 (f "origin") in
  let communities =
    let idx = f "community" in
    if idx = 0 then []
    else
      match List.nth_opt view.sh_universe (idx - 1) with
      | Some c -> [ c ]
      | None -> []
  in
  let lp = f "local_pref" in
  let attrs =
    Bgp.Attr.make
      ~origin:
        (match Bgp.Attr.origin_of_code origin_code with
        | Some o -> o
        | None -> Bgp.Attr.Incomplete)
      ~as_path:[ Bgp.As_path.Seq path ]
      ~med:(Some (f "med"))
      ~local_pref:(if lp = 100 then None else Some lp)
      ~communities
      ~next_hop:(Bgp.Router.addr_of_node (Bgp.Router.node_of_addr view.sh_peer.Bgp.Config.addr))
      ()
  in
  { Bgp.Msg.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }

(* Byte offsets into the encoded UPDATE: header(19) + withdrawn-len(2)
   + attrs-len(2); the ORIGIN attribute is encoded first as
   [flags type len value]. *)
let origin_len_offset = 19 + 2 + 2 + 2
let origin_value_offset = 19 + 2 + 2 + 3

let concretize view input =
  let u = update_of_input view input in
  let raw = Bgp.Wire.encode (Bgp.Msg.Update u) in
  if u.Bgp.Msg.attrs = None then raw
  else
  match lookup_field view input "malform" with
  | 1 ->
      (* Invalid ORIGIN value: decodes to update-error/invalid-origin. *)
      let b = Bytes.of_string raw in
      Bytes.set b origin_value_offset (Char.chr 0xEE);
      Bytes.to_string b
  | 2 ->
      (* Corrupt ORIGIN attribute length: attribute-length error. *)
      let b = Bytes.of_string raw in
      Bytes.set b origin_len_offset (Char.chr 9);
      Bytes.to_string b
  | _ ->
      if lookup_field view input "origin" >= 3 then begin
        (* The mirror treats origin >= 3 as malformed; emit bytes that
           actually carry the invalid ORIGIN code. *)
        let b = Bytes.of_string raw in
        Bytes.set b origin_value_offset (Char.chr 3);
        Bytes.to_string b
      end
      else raw

let seeds view =
  let peer_as = view.sh_peer.Bgp.Config.remote_as in
  [ (* benign: neighbor originates its own route *)
    [ ("origin_as", peer_as); ("neighbor_as", peer_as) ];
    (* longer path through the neighbor *)
    [ ("origin_as", view.sh_asn_hi); ("neighbor_as", peer_as); ("path_len", 3) ];
    (* carrying a community, if any exist *)
    (match view.sh_universe with
    | _ :: _ -> [ ("origin_as", peer_as); ("neighbor_as", peer_as); ("community", 1) ]
    | [] -> [ ("origin_as", peer_as); ("neighbor_as", peer_as) ]);
    (* a path that loops through us (valid on the wire; the loop check
       must reject it) *)
    [ ("origin_as", peer_as); ("neighbor_as", peer_as); ("path_len", 3);
      ("contains_self", 1) ] ]

(* One derivation per call; each field is an independent production.
   The weights keep most samples wire-valid while still visiting the
   martian and bogus-netmask corners. *)
let fuzz_inputs view rng n =
  let u = List.length view.sh_universe in
  let pick g = Grammar.run g rng in
  let derive () =
    [ ("origin_as", pick (Grammar.range view.sh_asn_lo view.sh_asn_hi));
      ("neighbor_as", view.sh_peer.Bgp.Config.remote_as);
      ("path_len", pick (Grammar.range 1 4));
      ("contains_self", if pick (Grammar.chance 0.15) then 1 else 0);
      ("withdraw", if pick (Grammar.chance 0.1) then 1 else 0);
      ("community", if u = 0 then 0 else pick (Grammar.range 0 u));
      ("nlri_a", pick (Grammar.one_of [ 192; 192; 192; 192; 10; 127; 0; 240 ]));
      ("nlri_b", pick (Grammar.range 0 255));
      ("nlri_len",
       pick (Grammar.weighted
               [ (6, Grammar.pure 24); (2, Grammar.pure 16); (1, Grammar.pure 8);
                 (1, Grammar.pure 30) ]));
      ("origin", pick (Grammar.range 0 2));
      ("med", pick (Grammar.range 0 300)) ]
  in
  List.init n (fun _ -> derive ())

type derivation = outcome Concolic.Engine.result

module Session_map = Map.Make (struct
  type t = int * int

  let compare (n1, p1) (n2, p2) =
    match Int.compare n1 n2 with 0 -> Int.compare p1 p2 | c -> c
end)

(* The last view derived for each (node, peer address), with its limits
   and result.  The map is immutable and swapped whole, like the verdict
   memo's: entries are pure, so when two writers race (a hung campaign
   job's domain beside the next job) the last one may win. *)
type memo = (view * Concolic.Engine.limits * derivation) Session_map.t Atomic.t

let memo () = Atomic.make Session_map.empty

(* The rest of a view is a function of the node, the peer, the config
   and the bug flags, so these four and the Loc-RIB decide it. *)
let same_view a b =
  a.sh_config == b.sh_config && a.sh_loc_rib == b.sh_loc_rib && a.sh_bugs = b.sh_bugs

let derive memo ~limits view =
  let key = (view.sh_node, Bgp.Ipv4.to_int view.sh_peer.Bgp.Config.addr) in
  match Session_map.find_opt key (Atomic.get memo) with
  | Some (seen, seen_limits, result) when same_view seen view && seen_limits = limits ->
      (result, `Memo)
  | Some _ | None ->
      let result = Concolic.Engine.explore ~limits ~seeds:(seeds view) (run view) in
      Atomic.set memo (Session_map.add key (view, limits, result) (Atomic.get memo));
      (result, `Fresh)
