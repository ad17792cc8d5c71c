type source = {
  peer_addr : Ipv4.t;
  peer_as : int;
  peer_bgp_id : Ipv4.t;
  ebgp : bool;
  igp_metric : int;
}

let local_source =
  { peer_addr = Ipv4.any; peer_as = 0; peer_bgp_id = Ipv4.any; ebgp = false;
    igp_metric = 0 }

type route = { attrs : Attr.t; source : source }

let is_local r = Ipv4.equal r.source.peer_addr Ipv4.any

(* [cands] is the Adj-RIB-In, held once, by prefix: for each prefix,
   the candidate routes keyed by advertising peer.  Looking up a
   prefix's candidate set — what the incremental decision process does
   per dirty prefix — is one trie walk; the per-peer views
   ([prefixes_from_peer], [drop_peer]) are one walk of the trie. *)
type t = {
  cands : route Ipv4.Map.t Prefix_trie.t;
  loc : route Prefix_trie.t;
  adj_out : Attr.t Prefix.Map.t Ipv4.Map.t;
}

let empty = { cands = Prefix_trie.empty; loc = Prefix_trie.empty; adj_out = Ipv4.Map.empty }

let peer_map peer m = Option.value (Ipv4.Map.find_opt peer m) ~default:Prefix.Map.empty

let update_peer_map peer f m =
  let pm = f (peer_map peer m) in
  if Prefix.Map.is_empty pm then Ipv4.Map.remove peer m else Ipv4.Map.add peer pm m

let adj_in_set peer prefix route t =
  let pm = Option.value (Prefix_trie.find prefix t.cands) ~default:Ipv4.Map.empty in
  { t with cands = Prefix_trie.add prefix (Ipv4.Map.add peer route pm) t.cands }

let without_peer peer prefix pm cands =
  let pm = Ipv4.Map.remove peer pm in
  if Ipv4.Map.is_empty pm then Prefix_trie.remove prefix cands
  else Prefix_trie.add prefix pm cands

let adj_in_del peer prefix t =
  match Prefix_trie.find prefix t.cands with
  | Some pm when Ipv4.Map.mem peer pm -> { t with cands = without_peer peer prefix pm t.cands }
  | Some _ | None -> t

let adj_in_get peer prefix t =
  Option.bind (Prefix_trie.find prefix t.cands) (Ipv4.Map.find_opt peer)

(* The incremental-decision entry point: apply the route (or its
   absence) and report whether the prefix's candidate set actually
   changed.  Re-announcements that import to an identical route and
   withdrawals of prefixes the peer never advertised leave the
   candidate set — and therefore the decision — untouched. *)
let adj_in_update peer prefix route t =
  let current = adj_in_get peer prefix t in
  match (route, current) with
  | None, None -> (t, false)
  | Some r, Some c when r = c -> (t, false)
  | Some r, _ -> (adj_in_set peer prefix r t, true)
  | None, Some _ -> (adj_in_del peer prefix t, true)

let drop_peer peer t =
  let cands =
    Prefix_trie.fold
      (fun prefix pm cands ->
        if Ipv4.Map.mem peer pm then without_peer peer prefix pm cands else cands)
      t.cands t.cands
  in
  let adj_out = Ipv4.Map.remove peer t.adj_out in
  if cands == t.cands && adj_out == t.adj_out then t else { t with cands; adj_out }

let candidates prefix t =
  match Prefix_trie.find prefix t.cands with
  | None -> []
  | Some pm -> Ipv4.Map.fold (fun _ r acc -> r :: acc) pm []

let prefixes_from_peer peer t =
  Prefix_trie.fold
    (fun p pm acc -> if Ipv4.Map.mem peer pm then p :: acc else acc)
    t.cands []
  |> List.rev

let loc_set prefix route t = { t with loc = Prefix_trie.add prefix route t.loc }
let loc_del prefix t = { t with loc = Prefix_trie.remove prefix t.loc }
let loc_get prefix t = Prefix_trie.find prefix t.loc
let loc_prefixes t = List.rev (Prefix_trie.fold (fun p _ acc -> p :: acc) t.loc [])
let loc_cardinal t = Prefix_trie.cardinal t.loc

(* Two prefix lists in descending order merged, without duplicates,
   into one in ascending order. *)
let rec merge_descending a b acc =
  match (a, b) with
  | [], [] -> acc
  | x :: a', [] | [], x :: a' -> merge_descending a' [] (x :: acc)
  | x :: a', y :: b' ->
      let c = Prefix.compare x y in
      if c > 0 then merge_descending a' b (x :: acc)
      else if c < 0 then merge_descending a b' (y :: acc)
      else merge_descending a' b' (x :: acc)

let changed_prefixes old_rib new_rib =
  let diff a b = Prefix_trie.fold_diff (fun p _ _ acc -> p :: acc) a b [] in
  merge_descending (diff old_rib.loc new_rib.loc) (diff old_rib.cands new_rib.cands) []

let loc_event prefix = function
  | Some r ->
      Printf.sprintf "%s via %s" (Prefix.to_string prefix)
        (Ipv4.to_string r.source.peer_addr)
  | None -> Printf.sprintf "%s unreachable" (Prefix.to_string prefix)

let parse_loc_event detail =
  match String.index_opt detail ' ' with
  | None -> None
  | Some i ->
      let prefix = String.sub detail 0 i in
      let state = String.sub detail (i + 1) (String.length detail - i - 1) in
      if
        String.equal state "unreachable"
        || (String.length state > 4 && String.equal (String.sub state 0 4) "via ")
      then Some (prefix, state)
      else None

let adj_out_set peer prefix attrs t =
  { t with adj_out = update_peer_map peer (Prefix.Map.add prefix attrs) t.adj_out }

let adj_out_del peer prefix t =
  { t with adj_out = update_peer_map peer (Prefix.Map.remove prefix) t.adj_out }

let adj_out_get peer prefix t = Prefix.Map.find_opt prefix (peer_map peer t.adj_out)

let total_adj_in t = Prefix_trie.fold (fun _ pm acc -> acc + Ipv4.Map.cardinal pm) t.cands 0
