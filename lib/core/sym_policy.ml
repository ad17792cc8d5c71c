open Concolic

type result = Accepted of Sym_route.t | Denied

let cval_of_bool b = Cval.concrete (if b then 1 else 0)

let prefix_rule_matches (rule : Bgp.Policy.prefix_rule) (sr : Sym_route.t) =
  let base = Bgp.Prefix.len rule.Bgp.Policy.rule_prefix in
  let lo, hi = Bgp.Policy.prefix_rule_bounds rule in
  let a, b, c, d = Bgp.Ipv4.to_octets (Bgp.Prefix.addr rule.Bgp.Policy.rule_prefix) in
  (* Compare the address octets covered by the rule's own length.  An
     octet covered partially (e.g. a /4 rule) contributes a masked
     comparison on its high bits. *)
  let octet_ok k rule_octet sym_octet =
    let bits = max 0 (min 8 (base - ((k - 1) * 8))) in
    if bits = 0 then cval_of_bool true
    else if bits = 8 then Cval.eq_const sym_octet rule_octet
    else
      let mask = 0xFF land (0xFF lsl (8 - bits)) in
      Cval.eq
        (Cval.band sym_octet (Cval.concrete mask))
        (Cval.concrete (rule_octet land mask))
  in
  (* The mirror's fourth NLRI octet is always 0, so a rule with a set
     bit there (rule prefixes are canonical: only bits past /24) never
     matches. *)
  if d <> 0 then cval_of_bool false
  else
    List.fold_left Cval.conj
      (Cval.in_range sr.Sym_route.sr_prefix_len ~lo ~hi)
      [ octet_ok 1 a sr.Sym_route.sr_prefix_a;
        octet_ok 2 b sr.Sym_route.sr_prefix_b;
        octet_ok 3 c sr.Sym_route.sr_prefix_c ]

let as_path_test ~own_asn (test : Bgp.Policy.as_path_test) (sr : Sym_route.t) =
  match test with
  | Bgp.Policy.Path_contains asn ->
      if asn = own_asn then Cval.eq_const sr.Sym_route.sr_contains_self 1
      else
        Cval.disj
          (Cval.eq_const sr.Sym_route.sr_origin_as asn)
          (Cval.eq_const sr.Sym_route.sr_neighbor_as asn)
  | Bgp.Policy.Path_originated_by asn -> Cval.eq_const sr.Sym_route.sr_origin_as asn
  | Bgp.Policy.Path_neighbor_is asn -> Cval.eq_const sr.Sym_route.sr_neighbor_as asn
  | Bgp.Policy.Path_length_at_most n ->
      Cval.le sr.Sym_route.sr_path_len (Cval.concrete n)
  | Bgp.Policy.Path_length_at_least n ->
      Cval.ge sr.Sym_route.sr_path_len (Cval.concrete n)

let match_clause _ctx ~own_asn ~universe clause (sr : Sym_route.t) =
  match clause with
  | Bgp.Policy.Match_prefix rules ->
      List.fold_left
        (fun acc rule -> Cval.disj acc (prefix_rule_matches rule sr))
        (cval_of_bool false) rules
  | Bgp.Policy.Match_as_path test -> as_path_test ~own_asn test sr
  | Bgp.Policy.Match_community c -> (
      match Sym_route.community_index universe c with
      | Some idx -> Cval.eq_const sr.Sym_route.sr_community idx
      | None -> cval_of_bool false)
  | Bgp.Policy.Match_origin o ->
      Cval.eq_const sr.Sym_route.sr_origin (Bgp.Attr.origin_code o)
  | Bgp.Policy.Match_next_hop _ ->
      (* Next hops are rewritten at every eBGP hop; not modelled
         symbolically. *)
      cval_of_bool false

let apply_set ctx ~universe (set : Bgp.Policy.set_clause) (sr : Sym_route.t) =
  match set with
  | Bgp.Policy.Set_local_pref v ->
      { sr with Sym_route.sr_local_pref = Cval.concrete v }
  | Bgp.Policy.Set_med None -> { sr with Sym_route.sr_med = Cval.concrete 0 }
  | Bgp.Policy.Set_med (Some v) -> { sr with Sym_route.sr_med = Cval.concrete v }
  | Bgp.Policy.Set_origin o ->
      { sr with Sym_route.sr_origin = Cval.concrete (Bgp.Attr.origin_code o) }
  | Bgp.Policy.Add_community c -> (
      (* Single-slot community abstraction: adding replaces. *)
      match Sym_route.community_index universe c with
      | Some idx -> { sr with Sym_route.sr_community = Cval.concrete idx }
      | None -> sr)
  | Bgp.Policy.Del_community c -> (
      match Sym_route.community_index universe c with
      | Some idx ->
          (* Branch so the engine can also explore the
             slot-holds-something-else side. *)
          if Ctx.branch ctx (Cval.eq_const sr.Sym_route.sr_community idx) then
            { sr with Sym_route.sr_community = Cval.concrete 0 }
          else sr
      | None -> sr)
  | Bgp.Policy.Prepend_as (_, n) ->
      { sr with
        Sym_route.sr_path_len = Cval.add sr.Sym_route.sr_path_len (Cval.concrete n) }
  | Bgp.Policy.Set_next_hop _ -> sr

(* First match in list order, as [Bgp.Policy.deciding]: one branch per
   entry reached, on the conjunction of its match clauses. *)
let eval ctx ~own_asn ~universe policy sr =
  let decides (entry : Bgp.Policy.entry) =
    Ctx.branch ctx
      (List.fold_left
         (fun acc clause -> Cval.conj acc (match_clause ctx ~own_asn ~universe clause sr))
         (cval_of_bool true) entry.Bgp.Policy.matches)
  in
  match List.find_opt decides policy with
  | None -> Denied
  | Some { Bgp.Policy.action = Bgp.Policy.Deny; _ } -> Denied
  | Some { Bgp.Policy.action = Bgp.Policy.Permit; sets; _ } ->
      Accepted (List.fold_left (fun sr set -> apply_set ctx ~universe set sr) sr sets)
