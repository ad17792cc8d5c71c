(* Routing information bases: per-peer tables, candidates, persistence. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let addr s = Bgp.Ipv4.of_string_exn s
let p = Bgp.Prefix.of_string_exn

let route peer path =
  { Bgp.Rib.attrs =
      Bgp.Attr.make ~origin:Bgp.Attr.Igp
        ~as_path:[ Bgp.As_path.Seq path ]
        ~next_hop:(addr peer) ();
    source =
      { Bgp.Rib.peer_addr = addr peer; peer_as = List.hd path;
        peer_bgp_id = addr peer; ebgp = true; igp_metric = 0 } }

let adj_in_roundtrip () =
  let rib = Bgp.Rib.empty in
  let r1 = route "10.0.0.2" [ 65002 ] in
  let rib = Bgp.Rib.adj_in_set (addr "10.0.0.2") (p "192.0.2.0/24") r1 rib in
  check (Alcotest.option Alcotest.reject) "absent for other peer" None
    (Option.map ignore (Bgp.Rib.adj_in_get (addr "10.0.0.3") (p "192.0.2.0/24") rib));
  Alcotest.(check bool) "present for the right peer" true
    (Bgp.Rib.adj_in_get (addr "10.0.0.2") (p "192.0.2.0/24") rib = Some r1);
  let rib = Bgp.Rib.adj_in_del (addr "10.0.0.2") (p "192.0.2.0/24") rib in
  check (Alcotest.option Alcotest.reject) "deleted" None
    (Option.map ignore (Bgp.Rib.adj_in_get (addr "10.0.0.2") (p "192.0.2.0/24") rib));
  check Alcotest.int "empty after delete" 0 (Bgp.Rib.total_adj_in rib)

let candidates_across_peers () =
  let rib =
    Bgp.Rib.empty
    |> Bgp.Rib.adj_in_set (addr "10.0.0.2") (p "192.0.2.0/24") (route "10.0.0.2" [ 65002 ])
    |> Bgp.Rib.adj_in_set (addr "10.0.0.3") (p "192.0.2.0/24") (route "10.0.0.3" [ 65003 ])
    |> Bgp.Rib.adj_in_set (addr "10.0.0.3") (p "198.51.100.0/24") (route "10.0.0.3" [ 65003 ])
  in
  check Alcotest.int "two candidates" 2
    (List.length (Bgp.Rib.candidates (p "192.0.2.0/24") rib));
  check Alcotest.int "one candidate" 1
    (List.length (Bgp.Rib.candidates (p "198.51.100.0/24") rib));
  check Alcotest.int "total adj-in" 3 (Bgp.Rib.total_adj_in rib)

let drop_peer_flushes_both_directions () =
  let rib =
    Bgp.Rib.empty
    |> Bgp.Rib.adj_in_set (addr "10.0.0.2") (p "192.0.2.0/24") (route "10.0.0.2" [ 65002 ])
    |> Bgp.Rib.adj_out_set (addr "10.0.0.2") (p "198.51.100.0/24")
         (Bgp.Attr.make ~next_hop:(addr "10.0.0.1") ())
    |> Bgp.Rib.adj_out_set (addr "10.0.0.3") (p "198.51.100.0/24")
         (Bgp.Attr.make ~next_hop:(addr "10.0.0.1") ())
  in
  let rib = Bgp.Rib.drop_peer (addr "10.0.0.2") rib in
  check Alcotest.int "adj-in gone" 0 (Bgp.Rib.total_adj_in rib);
  check (Alcotest.option Alcotest.reject) "adj-out gone for that peer" None
    (Option.map ignore (Bgp.Rib.adj_out_get (addr "10.0.0.2") (p "198.51.100.0/24") rib));
  Alcotest.(check bool) "other peer's adj-out kept" true
    (Bgp.Rib.adj_out_get (addr "10.0.0.3") (p "198.51.100.0/24") rib <> None)

let loc_rib_ops () =
  let r = route "10.0.0.2" [ 65002 ] in
  let rib = Bgp.Rib.loc_set (p "192.0.2.0/24") r Bgp.Rib.empty in
  check Alcotest.int "cardinal" 1 (Bgp.Rib.loc_cardinal rib);
  check (Alcotest.list (Alcotest.testable Bgp.Prefix.pp Bgp.Prefix.equal)) "prefixes"
    [ p "192.0.2.0/24" ] (Bgp.Rib.loc_prefixes rib);
  let rib = Bgp.Rib.loc_del (p "192.0.2.0/24") rib in
  check Alcotest.int "deleted" 0 (Bgp.Rib.loc_cardinal rib)

let prefixes_from_peer_sorted () =
  let rib =
    Bgp.Rib.empty
    |> Bgp.Rib.adj_in_set (addr "10.0.0.2") (p "198.51.100.0/24") (route "10.0.0.2" [ 1 ])
    |> Bgp.Rib.adj_in_set (addr "10.0.0.2") (p "192.0.2.0/24") (route "10.0.0.2" [ 1 ])
  in
  check (Alcotest.list Alcotest.string) "in prefix order"
    [ "192.0.2.0/24"; "198.51.100.0/24" ]
    (List.map Bgp.Prefix.to_string (Bgp.Rib.prefixes_from_peer (addr "10.0.0.2") rib))

let persistence () =
  let rib1 =
    Bgp.Rib.adj_in_set (addr "10.0.0.2") (p "192.0.2.0/24") (route "10.0.0.2" [ 1 ])
      Bgp.Rib.empty
  in
  let rib2 = Bgp.Rib.drop_peer (addr "10.0.0.2") rib1 in
  check Alcotest.int "old value untouched" 1 (Bgp.Rib.total_adj_in rib1);
  check Alcotest.int "new value empty" 0 (Bgp.Rib.total_adj_in rib2)

let local_route_detection () =
  let local =
    { Bgp.Rib.attrs = Bgp.Attr.make ~next_hop:(addr "10.0.0.1") ();
      source = Bgp.Rib.local_source }
  in
  Alcotest.(check bool) "local" true (Bgp.Rib.is_local local);
  Alcotest.(check bool) "learned is not local" false
    (Bgp.Rib.is_local (route "10.0.0.2" [ 1 ]))

(* Model-based: a random sequence of adj-in set/del and peer drops
   behaves like an association list keyed by (peer, prefix), and the
   views derived from the candidate trie agree with it.  Nested
   prefixes put trie order to the test. *)
type adj_in_op = Set of string * string | Del of string * string | Drop of string

let model_peers = [ "10.0.0.2"; "10.0.0.3"; "10.0.0.4" ]

let model_prefixes =
  [ "10.0.0.0/8"; "10.0.0.0/16"; "10.128.0.0/9"; "192.0.2.0/24"; "198.51.100.0/24";
    "203.0.113.0/24" ]

let arb_ops =
  let open QCheck.Gen in
  let peer = oneofl model_peers in
  let prefix = oneofl model_prefixes in
  let op =
    frequency
      [ (5, map2 (fun pe pr -> Set (pe, pr)) peer prefix);
        (3, map2 (fun pe pr -> Del (pe, pr)) peer prefix);
        (1, map (fun pe -> Drop pe) peer) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Set (pe, pr) -> Printf.sprintf "set %s %s" pe pr
             | Del (pe, pr) -> Printf.sprintf "del %s %s" pe pr
             | Drop pe -> Printf.sprintf "drop %s" pe)
           ops))
    (list_size (int_bound 40) op)

let adj_in_model =
  QCheck.Test.make ~name:"rib: adj-in behaves like an association list" ~count:300
    arb_ops
    (fun ops ->
      let rib, model =
        List.fold_left
          (fun (rib, model) op ->
            match op with
            | Set (pe, pr) ->
                let r = route pe [ 65000 ] in
                ( Bgp.Rib.adj_in_set (addr pe) (p pr) r rib,
                  ((pe, pr), r) :: List.remove_assoc (pe, pr) model )
            | Del (pe, pr) ->
                (Bgp.Rib.adj_in_del (addr pe) (p pr) rib, List.remove_assoc (pe, pr) model)
            | Drop pe ->
                ( Bgp.Rib.drop_peer (addr pe) rib,
                  List.filter (fun ((pe', _), _) -> pe' <> pe) model ))
          (Bgp.Rib.empty, []) ops
      in
      List.for_all
        (fun pe ->
          List.for_all
            (fun pr ->
              Bgp.Rib.adj_in_get (addr pe) (p pr) rib = List.assoc_opt (pe, pr) model)
            model_prefixes
          && Bgp.Rib.prefixes_from_peer (addr pe) rib
             = List.sort Bgp.Prefix.compare
                 (List.filter_map
                    (fun ((pe', pr), _) -> if pe' = pe then Some (p pr) else None)
                    model))
        model_peers
      && Bgp.Rib.total_adj_in rib = List.length model)

(* --- the sharing-aware diff of two RIBs --- *)

let peers = [| "10.0.0.2"; "10.0.0.3"; "10.0.0.4" |]

let prefixes =
  Array.map p
    [| "10.0.0.0/8"; "10.0.0.0/16"; "192.0.2.0/24"; "198.51.100.0/24"; "203.0.113.0/24" |]

(* Edits of a RIB by peer and prefix index; routes are allocated afresh
   from their AS, so equal ones recur.  [Loc_same] and [Adj_in_same]
   set again the very route already there, which changes nothing. *)
type rib_edit =
  | Adj_in of int * int * int
  | Adj_in_same of int * int
  | Adj_in_del of int * int
  | Loc of int * int * int
  | Loc_same of int
  | Loc_del of int

let apply_rib_edit rib = function
  | Adj_in (pe, pr, asn) ->
      Bgp.Rib.adj_in_set (addr peers.(pe)) prefixes.(pr) (route peers.(pe) [ asn ]) rib
  | Adj_in_same (pe, pr) -> (
      match Bgp.Rib.adj_in_get (addr peers.(pe)) prefixes.(pr) rib with
      | Some r -> Bgp.Rib.adj_in_set (addr peers.(pe)) prefixes.(pr) r rib
      | None -> rib)
  | Adj_in_del (pe, pr) -> Bgp.Rib.adj_in_del (addr peers.(pe)) prefixes.(pr) rib
  | Loc (pe, pr, asn) -> Bgp.Rib.loc_set prefixes.(pr) (route peers.(pe) [ asn ]) rib
  | Loc_same pr -> (
      match Bgp.Rib.loc_get prefixes.(pr) rib with
      | Some r -> Bgp.Rib.loc_set prefixes.(pr) r rib
      | None -> rib)
  | Loc_del pr -> Bgp.Rib.loc_del prefixes.(pr) rib

let print_rib_edit = function
  | Adj_in (pe, pr, asn) -> Printf.sprintf "in %d %d AS%d" pe pr asn
  | Adj_in_same (pe, pr) -> Printf.sprintf "in-same %d %d" pe pr
  | Adj_in_del (pe, pr) -> Printf.sprintf "in-del %d %d" pe pr
  | Loc (pe, pr, asn) -> Printf.sprintf "loc %d %d AS%d" pe pr asn
  | Loc_same pr -> Printf.sprintf "loc-same %d" pr
  | Loc_del pr -> Printf.sprintf "loc-del %d" pr

let rib_edit_gen =
  let open QCheck.Gen in
  let pe = int_bound (Array.length peers - 1)
  and pr = int_bound (Array.length prefixes - 1) in
  let asn = int_range 65001 65002 in
  frequency
    [ (3, map3 (fun a b c -> Adj_in (a, b, c)) pe pr asn);
      (1, map2 (fun a b -> Adj_in_same (a, b)) pe pr);
      (1, map2 (fun a b -> Adj_in_del (a, b)) pe pr);
      (3, map3 (fun a b c -> Loc (a, b, c)) pe pr asn);
      (1, map (fun b -> Loc_same b) pr);
      (1, map (fun b -> Loc_del b) pr) ]

(* Two RIBs derived from one base: every prefix whose Loc-RIB entry or
   candidates differ is reported, no prefix whose two bindings are
   both physically shared is, and the list is in prefix order. *)
let changed_prefixes_model =
  QCheck.Test.make ~name:"rib: changed_prefixes covers every change and no shared binding"
    ~count:500
    (QCheck.make
       ~print:(fun (base, ea, eb) ->
         let edits l = String.concat "; " (List.map print_rib_edit l) in
         Printf.sprintf "base [%s] a [%s] b [%s]" (edits base) (edits ea) (edits eb))
       QCheck.Gen.(
         triple
           (list_size (int_bound 25) rib_edit_gen)
           (list_size (int_bound 5) rib_edit_gen)
           (list_size (int_bound 5) rib_edit_gen)))
    (fun (base, ea, eb) ->
      let base = List.fold_left apply_rib_edit Bgp.Rib.empty base in
      let a = List.fold_left apply_rib_edit base ea
      and b = List.fold_left apply_rib_edit base eb in
      let changed = Bgp.Rib.changed_prefixes a b in
      let reported q = List.exists (Bgp.Prefix.equal q) changed in
      let shared x y =
        match (x, y) with
        | None, None -> true
        | Some x, Some y -> x == y
        | Some _, None | None, Some _ -> false
      in
      let rec ascending = function
        | x :: (y :: _ as rest) -> Bgp.Prefix.compare x y < 0 && ascending rest
        | [ _ ] | [] -> true
      in
      ascending changed
      && Array.for_all
           (fun q ->
             let differs =
               Bgp.Rib.loc_get q a <> Bgp.Rib.loc_get q b
               || Bgp.Rib.candidates q a <> Bgp.Rib.candidates q b
             in
             let untouched =
               shared (Bgp.Rib.loc_get q a) (Bgp.Rib.loc_get q b)
               && shared
                    (Bgp.Prefix_trie.find q a.Bgp.Rib.cands)
                    (Bgp.Prefix_trie.find q b.Bgp.Rib.cands)
             in
             ((not differs) || reported q) && not (untouched && reported q))
           prefixes)

let suite =
  [ ("rib: adj-in roundtrip", `Quick, adj_in_roundtrip);
    ("rib: candidates across peers", `Quick, candidates_across_peers);
    ("rib: drop peer flushes", `Quick, drop_peer_flushes_both_directions);
    ("rib: loc-rib operations", `Quick, loc_rib_ops);
    ("rib: per-peer prefixes sorted", `Quick, prefixes_from_peer_sorted);
    ("rib: persistence", `Quick, persistence);
    ("rib: local route detection", `Quick, local_route_detection);
    qtest adj_in_model;
    qtest changed_prefixes_model ]
