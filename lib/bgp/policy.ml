type prefix_rule = { rule_prefix : Prefix.t; ge : int option; le : int option }

let prefix_rule ?ge ?le p =
  let check = function
    | Some n when n < Prefix.len p || n > 32 ->
        invalid_arg "Policy.prefix_rule: bound out of range"
    | Some _ | None -> ()
  in
  check ge;
  check le;
  { rule_prefix = p; ge; le }

(* Cisco prefix-list semantics: no bound = exact length; [ge] alone
   opens the range up to /32; [le] alone starts it at the rule's own
   length. *)
let prefix_rule_bounds r =
  let base = Prefix.len r.rule_prefix in
  let lo = Option.value r.ge ~default:base in
  let hi =
    match (r.le, r.ge) with
    | Some le, _ -> le
    | None, Some _ -> 32
    | None, None -> base
  in
  (lo, hi)

let prefix_rule_matches r q =
  let lo, hi = prefix_rule_bounds r in
  Prefix.subsumes r.rule_prefix q && Prefix.len q >= lo && Prefix.len q <= hi

type as_path_test =
  | Path_contains of int
  | Path_originated_by of int
  | Path_neighbor_is of int
  | Path_length_at_most of int
  | Path_length_at_least of int

type match_clause =
  | Match_prefix of prefix_rule list
  | Match_as_path of as_path_test
  | Match_community of Community.t
  | Match_origin of Attr.origin
  | Match_next_hop of Ipv4.t

type set_clause =
  | Set_local_pref of int
  | Set_med of int option
  | Set_origin of Attr.origin
  | Add_community of Community.t
  | Del_community of Community.t
  | Prepend_as of int * int
  | Set_next_hop of Ipv4.t

type action = Permit | Deny

type entry = {
  seq : int;
  action : action;
  matches : match_clause list;
  sets : set_clause list;
}

type t = entry list

let entry ?(matches = []) ?(sets = []) seq action = { seq; action; matches; sets }
let accept_all = [ entry 65535 Permit ]
let deny_all = []

let normalize t = List.sort (fun a b -> Int.compare a.seq b.seq) t

let path_test test path =
  match test with
  | Path_contains asn -> As_path.contains asn path
  | Path_originated_by asn -> As_path.origin_as path = Some asn
  | Path_neighbor_is asn -> As_path.neighbor_as path = Some asn
  | Path_length_at_most n -> As_path.length path <= n
  | Path_length_at_least n -> As_path.length path >= n

let matches_route clause prefix (attrs : Attr.t) =
  match clause with
  | Match_prefix rules -> List.exists (fun r -> prefix_rule_matches r prefix) rules
  | Match_as_path test -> path_test test attrs.as_path
  | Match_community c -> Attr.has_community c attrs
  | Match_origin o -> attrs.origin = o
  | Match_next_hop nh -> Ipv4.equal attrs.next_hop nh

let apply_set clause (attrs : Attr.t) =
  match clause with
  | Set_local_pref v -> Attr.with_local_pref v attrs
  | Set_med v -> Attr.with_med v attrs
  | Set_origin o -> { attrs with origin = o }
  | Add_community c -> Attr.add_community c attrs
  | Del_community c -> Attr.remove_community c attrs
  | Prepend_as (asn, n) ->
      { attrs with as_path = As_path.prepend_n asn n attrs.as_path }
  | Set_next_hop nh -> { attrs with next_hop = nh }

(* --- clause coverage ------------------------------------------------ *)

type cov_site = { cs_node : int; cs_map : string }

type cov_point =
  | Cov_match of { idx : int; outcome : bool }
  | Cov_action
  | Cov_set of int
  | Cov_fallthrough

type cov_observer = cov_site -> seq:int -> cov_point -> unit

let observer : cov_observer option Atomic.t = Atomic.make None
let set_cov_observer f = Atomic.set observer f
let cov_on () = Atomic.get observer <> None

(* The one first-match walk: [apply] with or without an observer and
   [deciding] all go through it, so the observed evaluation order and
   short-circuiting are the plain one's.  A match clause after a
   failing one is never evaluated, so a shadowed clause never records
   a hit.  Points are built only under an observer, and the deciding
   entry goes straight to [decide], so the plain walk allocates
   nothing of its own. *)
let rec holds obs ~seq prefix attrs i = function
  | [] -> true
  | m :: ms ->
      let r = matches_route m prefix attrs in
      (match obs with
      | Some f -> f ~seq (Cov_match { idx = i; outcome = r })
      | None -> ());
      r && holds obs ~seq prefix attrs (i + 1) ms

let rec first_match obs prefix attrs ~decide = function
  | [] ->
      (match obs with Some f -> f ~seq:(-1) Cov_fallthrough | None -> ());
      None
  | e :: rest ->
      if holds obs ~seq:e.seq prefix attrs 0 e.matches then decide obs attrs e
      else first_match obs prefix attrs ~decide rest

let deciding t prefix attrs =
  first_match None prefix attrs ~decide:(fun _ _ e -> Some e) t

let rec apply_sets obs ~seq i attrs = function
  | [] -> attrs
  | s :: rest ->
      (match obs with Some f -> f ~seq (Cov_set i) | None -> ());
      apply_sets obs ~seq (i + 1) (apply_set s attrs) rest

let decide obs attrs e =
  (match obs with Some f -> f ~seq:e.seq Cov_action | None -> ());
  match e.action with
  | Deny -> None
  | Permit -> Some (apply_sets obs ~seq:e.seq 0 attrs e.sets)

(* --- route tracing -------------------------------------------------- *)

type trace_observer = cov_site -> Prefix.t -> Attr.t -> Attr.t option -> unit

let tracer : trace_observer option Atomic.t = Atomic.make None
let set_trace_observer f = Atomic.set tracer f

let apply ?site t prefix attrs =
  let obs =
    match site with
    | None -> None
    | Some s -> Option.map (fun f ~seq pt -> f s ~seq pt) (Atomic.get observer)
  in
  let result = first_match obs prefix attrs ~decide t in
  (match site with
  | None -> ()
  | Some s -> (
      match Atomic.get tracer with
      | None -> ()
      | Some f -> f s prefix attrs result));
  result

(* --- constant slots --------------------------------------------------- *)

type const_slot =
  | S_action
  | S_local_pref of int
  | S_med of int
  | S_match_ge of int * int
  | S_match_le of int * int
  | S_match_community of int
  | S_add_community of int

let slot_id = function
  | S_action -> "action"
  | S_local_pref i -> Printf.sprintf "s%d.lp" i
  | S_med i -> Printf.sprintf "s%d.med" i
  | S_match_ge (i, j) -> Printf.sprintf "m%d.r%d.ge" i j
  | S_match_le (i, j) -> Printf.sprintf "m%d.r%d.le" i j
  | S_match_community i -> Printf.sprintf "m%d.comm" i
  | S_add_community i -> Printf.sprintf "s%d.comm" i

let int_of_action = function Permit -> 1 | Deny -> 0

let slots e =
  let slots = ref [] in
  let add s v = slots := (s, v) :: !slots in
  add S_action (int_of_action e.action);
  List.iteri
    (fun i m ->
      match m with
      | Match_prefix rules ->
          List.iteri
            (fun j r ->
              (match r.ge with
              | Some g -> add (S_match_ge (i, j)) g
              | None -> ());
              match r.le with
              | Some l -> add (S_match_le (i, j)) l
              | None -> ())
            rules
      | Match_community c -> add (S_match_community i) (Community.to_int c)
      | Match_as_path _ | Match_origin _ | Match_next_hop _ -> ())
    e.matches;
  List.iteri
    (fun i s ->
      match s with
      | Set_local_pref v -> add (S_local_pref i) v
      | Set_med (Some v) -> add (S_med i) v
      | Add_community c -> add (S_add_community i) (Community.to_int c)
      | Set_med None | Set_origin _ | Del_community _ | Prepend_as _
      | Set_next_hop _ ->
          ())
    e.sets;
  List.rev !slots

let pp_action ppf = function
  | Permit -> Format.pp_print_string ppf "permit"
  | Deny -> Format.pp_print_string ppf "deny"

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "entry %d %a (%d matches, %d sets)@ " e.seq pp_action
        e.action (List.length e.matches) (List.length e.sets))
    t;
  Format.fprintf ppf "@]"
