module P = Bgp.Policy
module E = Concolic.Expr

type slot_ref = Policy_slot of P.const_slot | Originate

type binding = { b_var : E.var; b_slot : slot_ref; b_orig : int }

type t = {
  sy_suspect : Localize.suspect;
  sy_detection : E.t;
  sy_constraints : E.t list;
  sy_bindings : binding list;
}

let var_name ~site slot = Printf.sprintf "rep.%s.%s" (Localize.site_id site) slot

let slot_domain = function
  | P.S_action -> (0, 1)
  | P.S_local_pref _ -> (0, 1000)
  | P.S_med _ -> (0, 65535)
  | P.S_match_ge _ | P.S_match_le _ -> (0, 32)
  | P.S_match_community _ | P.S_add_community _ -> (0, 0xFFFFFFFF)

(* The search wants to try the gentlest knob first: preference values,
   then MED, then match bounds and communities, and only then the
   permit/deny bit (an action flip is the bluntest possible repair). *)
let slot_rank = function
  | P.S_local_pref _ -> 0
  | P.S_med _ -> 1
  | P.S_match_ge _ | P.S_match_le _ -> 2
  | P.S_match_community _ -> 3
  | P.S_add_community _ -> 4
  | P.S_action -> 5

let bool_e b = E.Const (if b then 1 else 0)
let conj = function [] -> E.tru | e :: es -> List.fold_left (fun a b -> E.And (a, b)) e es
let disj = function [] -> E.fls | e :: es -> List.fold_left (fun a b -> E.Or (a, b)) e es

let lookup bindings =
  fun (v : E.var) ->
    match
      List.find_opt (fun b -> b.b_var.E.v_id = v.E.v_id) bindings
    with
    | Some b -> b.b_orig
    | None -> v.E.v_lo

(* Split the map at the first entry carrying the suspect seq — the one
   [Policy.apply] reaches first. *)
let split_at_seq seq map =
  let rec go before = function
    | [] -> None
    | (e : P.entry) :: rest ->
        if e.P.seq = seq then Some (List.rev before, e, rest)
        else go (e :: before) rest
  in
  go [] map

let slot_var ~site slot =
  let lo, hi = slot_domain slot in
  E.var (var_name ~site (P.slot_id slot)) ~lo ~hi

let var_of bindings slot =
  List.find_map
    (fun b ->
      match b.b_slot with
      | Policy_slot s when s = slot -> Some b.b_var
      | _ -> None)
    bindings

(* Symbolic truth of one match clause of the suspect entry against a
   witness route.  Clauses without a symbolized constant evaluate
   concretely. *)
let sym_match bindings (w : Localize.witness) i clause =
  match clause with
  | P.Match_prefix rules ->
      let qlen = Bgp.Prefix.len w.Localize.w_prefix in
      disj
        (List.mapi
           (fun j (r : P.prefix_rule) ->
             if r.P.ge = None && r.P.le = None then
               bool_e (P.prefix_rule_matches r w.Localize.w_prefix)
             else
               let lo, hi = P.prefix_rule_bounds r in
               let bound slot deployed =
                 match var_of bindings slot with
                 | Some v -> E.Var v
                 | None -> E.Const deployed
               in
               conj
                 [ bool_e (Bgp.Prefix.subsumes r.P.rule_prefix w.Localize.w_prefix);
                   E.Le (bound (P.S_match_ge (i, j)) lo, E.Const qlen);
                   E.Le (E.Const qlen, bound (P.S_match_le (i, j)) hi) ])
           rules)
  | P.Match_community _ -> (
      match var_of bindings (P.S_match_community i) with
      | None -> bool_e (P.matches_route clause w.Localize.w_prefix w.Localize.w_attrs_in)
      | Some v ->
          disj
            (List.map
               (fun c -> E.Eq (E.Var v, E.Const (Bgp.Community.to_int c)))
               w.Localize.w_attrs_in.Bgp.Attr.communities))
  | P.Match_as_path _ | P.Match_origin _ | P.Match_next_hop _ ->
      bool_e (P.matches_route clause w.Localize.w_prefix w.Localize.w_attrs_in)

(* Lift the constants of [entry] (the suspect; [before] are the entries
   ahead of it) into solver variables, in slot order, and give for a
   witness the entry's match formula over them — [None] when an entry
   ahead of it decides the witness first. *)
let lift_entry ~site before (entry : P.entry) =
  let slots =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare (slot_rank a) (slot_rank b))
      (P.slots entry)
  in
  let bindings =
    List.map
      (fun (slot, orig) ->
        { b_var = slot_var ~site slot;
          b_slot = Policy_slot slot;
          b_orig = orig })
      slots
  in
  let entry_match (w : Localize.witness) =
    match P.deciding before w.Localize.w_prefix w.Localize.w_attrs_in with
    | Some _ -> None
    | None ->
        Some (conj (List.mapi (fun i c -> sym_match bindings w i c) entry.P.matches))
  in
  (bindings, entry_match)

let lift ~site ~seq map =
  Option.map
    (fun (before, entry, _) -> lift_entry ~site before entry)
    (split_at_seq seq map)

let policy_site ~target (su : Localize.suspect) site seq =
  match split_at_seq seq su.Localize.su_map with
  | None -> None
  | Some (before, entry, after) ->
      let bindings, entry_match = lift_entry ~site before entry in
      let conflict =
        target.Dice.Signature.sg_class = Dice.Fault.Policy_conflict
      in
      let alt = su.Localize.su_alt_pref in
      let action_var =
        match var_of bindings P.S_action with
        | Some v -> v
        | None -> assert false (* [P.slots] always emits the action *)
      in
      let lp_var =
        (* [apply_set] folds left, so the last Set_local_pref wins. *)
        List.fold_left
          (fun acc b ->
            match b.b_slot with
            | Policy_slot (P.S_local_pref _) -> Some b.b_var
            | _ -> acc)
          None bindings
      in
      (* A witness an earlier entry already decides never reaches the
         suspect and constrains nothing. *)
      let witness_detected (w : Localize.witness) =
        Option.map
          (fun m ->
            let a = E.Eq (E.Var action_var, E.Const 1) in
            let pref_out =
              match lp_var with
              | Some v -> E.Var v
              | None ->
                  E.Const
                    (Bgp.Attr.effective_local_pref
                       (match w.Localize.w_out with
                       | Some o -> o
                       | None -> w.Localize.w_attrs_in))
            in
            let d_here =
              if conflict then E.Lt (E.Const alt, pref_out) else E.tru
            in
            let d_later =
              match P.apply after w.Localize.w_prefix w.Localize.w_attrs_in with
              | None -> E.fls
              | Some out ->
                  if conflict then
                    bool_e (Bgp.Attr.effective_local_pref out > alt)
                  else E.tru
            in
            E.Or (E.And (m, E.And (a, d_here)), E.And (E.Not m, d_later)))
          (entry_match w)
      in
      let env = lookup bindings in
      (* Reproduce gate: only witnesses whose symbolic detection is
         true under the deployed values constrain the solver — a
         non-reproducing witness would let it "repair" the fault by
         changing nothing. *)
      let detections =
        List.filter_map
          (fun w ->
            match witness_detected w with
            | Some dw when E.eval env dw <> 0 -> Some dw
            | _ -> None)
          su.Localize.su_witnesses
      in
      if detections = [] then None
      else
        let bound_pairs =
          List.filter_map
            (fun b ->
              match b.b_slot with
              | Policy_slot (P.S_match_ge (i, j)) ->
                  Option.map
                    (fun le -> E.Le (E.Var b.b_var, E.Var le))
                    (var_of bindings (P.S_match_le (i, j)))
              | _ -> None)
            bindings
        in
        Some
          { sy_suspect = su;
            sy_detection = disj detections;
            sy_constraints = bound_pairs;
            sy_bindings = bindings }

let network_site (su : Localize.suspect) site =
  let v = E.var (var_name ~site "originate") ~lo:0 ~hi:1 in
  Some
    { sy_suspect = su;
      sy_detection = E.Eq (E.Var v, E.Const 1);
      sy_constraints = [];
      sy_bindings = [ { b_var = v; b_slot = Originate; b_orig = 1 } ] }

let suspect ~target (su : Localize.suspect) =
  match su.Localize.su_site with
  | Localize.Network_site _ -> network_site su su.Localize.su_site
  | Localize.Policy_site { ps_seq; _ } ->
      policy_site ~target su su.Localize.su_site ps_seq
