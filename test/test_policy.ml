(* Route-map semantics. *)

let check = Alcotest.check

let nh = Bgp.Ipv4.of_string_exn "10.0.0.9"
let p = Bgp.Prefix.of_string_exn

let base_attrs =
  Bgp.Attr.make ~origin:Bgp.Attr.Igp
    ~as_path:[ Bgp.As_path.Seq [ 65002; 65003 ] ]
    ~next_hop:nh ()

let prefix_rule_semantics () =
  let r_exact = Bgp.Policy.prefix_rule (p "10.0.0.0/8") in
  Alcotest.(check bool) "exact hits" true (Bgp.Policy.prefix_rule_matches r_exact (p "10.0.0.0/8"));
  Alcotest.(check bool) "exact misses longer" false
    (Bgp.Policy.prefix_rule_matches r_exact (p "10.1.0.0/16"));
  let r_le = Bgp.Policy.prefix_rule ~le:24 (p "10.0.0.0/8") in
  Alcotest.(check bool) "le hits /16" true (Bgp.Policy.prefix_rule_matches r_le (p "10.1.0.0/16"));
  Alcotest.(check bool) "le misses /25" false
    (Bgp.Policy.prefix_rule_matches r_le (p "10.1.1.0/25"));
  let r_ge = Bgp.Policy.prefix_rule ~ge:24 (p "10.0.0.0/8") in
  Alcotest.(check bool) "ge alone opens to /32" true
    (Bgp.Policy.prefix_rule_matches r_ge (p "10.1.1.128/25"));
  Alcotest.(check bool) "ge excludes shorter" false
    (Bgp.Policy.prefix_rule_matches r_ge (p "10.1.0.0/16"));
  Alcotest.(check bool) "outside the block never matches" false
    (Bgp.Policy.prefix_rule_matches r_le (p "11.0.0.0/16"))

let prefix_rule_boundaries () =
  (* ge = le = the rule's own length is the same as an exact match. *)
  let r_pin = Bgp.Policy.prefix_rule ~ge:8 ~le:8 (p "10.0.0.0/8") in
  Alcotest.(check bool) "ge=le=len hits itself" true
    (Bgp.Policy.prefix_rule_matches r_pin (p "10.0.0.0/8"));
  Alcotest.(check bool) "ge=le=len misses longer" false
    (Bgp.Policy.prefix_rule_matches r_pin (p "10.1.0.0/16"));
  (* An inverted ge > le window matches nothing inside the block. *)
  let r_empty = Bgp.Policy.prefix_rule ~ge:24 ~le:16 (p "10.0.0.0/8") in
  List.iter
    (fun pf ->
      Alcotest.(check bool)
        (Printf.sprintf "ge>le empty on %s" (Bgp.Prefix.to_string pf))
        false
        (Bgp.Policy.prefix_rule_matches r_empty pf))
    [ p "10.0.0.0/8"; p "10.1.0.0/16"; p "10.1.1.0/24"; p "10.1.1.1/32" ];
  (* le = 32 covers down to host routes, boundary included. *)
  let r_host = Bgp.Policy.prefix_rule ~le:32 (p "10.0.0.0/8") in
  Alcotest.(check bool) "le=32 hits /32" true
    (Bgp.Policy.prefix_rule_matches r_host (p "10.1.1.1/32"));
  Alcotest.(check bool) "le=32 hits own length" true
    (Bgp.Policy.prefix_rule_matches r_host (p "10.0.0.0/8"));
  (* ge at the boundary: /24 is in, /23 is out. *)
  let r_ge = Bgp.Policy.prefix_rule ~ge:24 (p "10.0.0.0/8") in
  Alcotest.(check bool) "ge=24 includes /24" true
    (Bgp.Policy.prefix_rule_matches r_ge (p "10.1.1.0/24"));
  Alcotest.(check bool) "ge=24 excludes /23" false
    (Bgp.Policy.prefix_rule_matches r_ge (p "10.1.2.0/23"))

let community_sets_idempotent () =
  let c = Bgp.Community.make 65000 100 in
  let apply sets attrs =
    match
      Bgp.Policy.apply [ Bgp.Policy.entry 10 Bgp.Policy.Permit ~sets ] (p "192.0.2.0/24") attrs
    with
    | Some a -> a
    | None -> Alcotest.fail "must permit"
  in
  (* Adding a community a route already carries changes nothing. *)
  let once = apply [ Bgp.Policy.Add_community c ] base_attrs in
  let twice = apply [ Bgp.Policy.Add_community c ] once in
  Alcotest.(check bool) "add is idempotent" true (Bgp.Attr.equal once twice);
  let dup = apply [ Bgp.Policy.Add_community c; Bgp.Policy.Add_community c ] base_attrs in
  Alcotest.(check bool) "double add in one entry" true (Bgp.Attr.equal once dup);
  (* Deleting an absent community changes nothing. *)
  let del = apply [ Bgp.Policy.Del_community c ] once in
  Alcotest.(check bool) "del removes" false (Bgp.Attr.has_community c del);
  let del2 = apply [ Bgp.Policy.Del_community c ] del in
  Alcotest.(check bool) "del is idempotent" true (Bgp.Attr.equal del del2);
  Alcotest.(check bool) "del of absent is identity" true
    (Bgp.Attr.equal base_attrs (apply [ Bgp.Policy.Del_community c ] base_attrs))

let first_match_wins () =
  let map =
    [ Bgp.Policy.entry 10 Bgp.Policy.Deny
        ~matches:[ Bgp.Policy.Match_prefix [ Bgp.Policy.prefix_rule ~le:32 (p "10.0.0.0/8") ] ];
      Bgp.Policy.entry 20 Bgp.Policy.Permit ]
  in
  check (Alcotest.option Alcotest.reject) "denied by entry 10" None
    (Option.map ignore (Bgp.Policy.apply map (p "10.1.0.0/16") base_attrs));
  Alcotest.(check bool) "other prefixes permitted" true
    (Bgp.Policy.apply map (p "192.0.2.0/24") base_attrs <> None)

let default_deny () =
  check (Alcotest.option Alcotest.reject) "empty map rejects" None
    (Option.map ignore (Bgp.Policy.apply Bgp.Policy.deny_all (p "192.0.2.0/24") base_attrs));
  let no_match =
    [ Bgp.Policy.entry 10 Bgp.Policy.Permit
        ~matches:[ Bgp.Policy.Match_origin Bgp.Attr.Egp ] ]
  in
  check (Alcotest.option Alcotest.reject) "unmatched rejects" None
    (Option.map ignore (Bgp.Policy.apply no_match (p "192.0.2.0/24") base_attrs))

let sets_applied_in_order () =
  let c = Bgp.Community.make 65001 7 in
  let map =
    [ Bgp.Policy.entry 10 Bgp.Policy.Permit
        ~sets:
          [ Bgp.Policy.Set_local_pref 200;
            Bgp.Policy.Add_community c;
            Bgp.Policy.Prepend_as (65001, 2);
            Bgp.Policy.Set_med (Some 50) ] ]
  in
  match Bgp.Policy.apply map (p "192.0.2.0/24") base_attrs with
  | None -> Alcotest.fail "must permit"
  | Some a ->
      check Alcotest.int "local-pref" 200 (Bgp.Attr.effective_local_pref a);
      Alcotest.(check bool) "community added" true (Bgp.Attr.has_community c a);
      check Alcotest.int "prepended twice" 4 (Bgp.As_path.length a.Bgp.Attr.as_path);
      check (Alcotest.option Alcotest.int) "med" (Some 50) a.Bgp.Attr.med

let as_path_matches () =
  let matches test = Bgp.Policy.matches_route (Bgp.Policy.Match_as_path test) (p "192.0.2.0/24") base_attrs in
  Alcotest.(check bool) "contains 65003" true (matches (Bgp.Policy.Path_contains 65003));
  Alcotest.(check bool) "not contains 1" false (matches (Bgp.Policy.Path_contains 1));
  Alcotest.(check bool) "originated by 65003" true (matches (Bgp.Policy.Path_originated_by 65003));
  Alcotest.(check bool) "not originated by 65002" false
    (matches (Bgp.Policy.Path_originated_by 65002));
  Alcotest.(check bool) "neighbor is 65002" true (matches (Bgp.Policy.Path_neighbor_is 65002));
  Alcotest.(check bool) "length <= 2" true (matches (Bgp.Policy.Path_length_at_most 2));
  Alcotest.(check bool) "length >= 3 fails" false (matches (Bgp.Policy.Path_length_at_least 3))

let entries_sorted_by_seq () =
  let map =
    Bgp.Policy.normalize
      [ Bgp.Policy.entry 20 Bgp.Policy.Permit;
        Bgp.Policy.entry 10 Bgp.Policy.Deny ]
  in
  check (Alcotest.option Alcotest.reject) "entry 10 deny runs first" None
    (Option.map ignore (Bgp.Policy.apply map (p "192.0.2.0/24") base_attrs))

let community_match_and_delete () =
  let c = Bgp.Community.make 65000 100 in
  let attrs = Bgp.Attr.add_community c base_attrs in
  let map =
    [ Bgp.Policy.entry 10 Bgp.Policy.Permit
        ~matches:[ Bgp.Policy.Match_community c ]
        ~sets:[ Bgp.Policy.Del_community c ] ]
  in
  (match Bgp.Policy.apply map (p "192.0.2.0/24") attrs with
  | Some a -> Alcotest.(check bool) "deleted" false (Bgp.Attr.has_community c a)
  | None -> Alcotest.fail "must match");
  check (Alcotest.option Alcotest.reject) "without the community: default deny" None
    (Option.map ignore (Bgp.Policy.apply map (p "192.0.2.0/24") base_attrs))

(* --- slots: constant lifting for the repair engine ------------------ *)

let slots_on_generated_maps () =
  (* Every entry of every route map the Gao-Rexford generator produces
     exposes at least one constant. *)
  let graph = Topology.Demo27.graph in
  List.iter
    (fun id ->
      let cfg = Topology.Gao_rexford.config_of graph id in
      List.iter
        (fun (name, map) ->
          List.iter
            (fun (e : Bgp.Policy.entry) ->
              if Bgp.Policy.slots e = [] then
                Alcotest.failf "node %d %s seq %d: no slots" id name
                  e.Bgp.Policy.seq)
            map)
        cfg.Bgp.Config.route_maps)
    (Topology.Graph.node_ids graph)

let slots_expose_constants () =
  let c = Bgp.Community.make 65000 100 in
  let e =
    Bgp.Policy.entry 10 Bgp.Policy.Permit
      ~matches:
        [ Bgp.Policy.Match_prefix
            [ Bgp.Policy.prefix_rule ~ge:16 ~le:24 (p "10.0.0.0/8") ];
          Bgp.Policy.Match_community c ]
      ~sets:
        [ Bgp.Policy.Set_local_pref 200;
          Bgp.Policy.Set_med (Some 30);
          Bgp.Policy.Add_community c ]
  in
  let slots = Bgp.Policy.slots e in
  check Alcotest.int "slot count" 7 (List.length slots);
  check Alcotest.int "permit encodes as 1" 1
    (List.assoc Bgp.Policy.S_action slots);
  check Alcotest.int "local-pref constant" 200
    (List.assoc (Bgp.Policy.S_local_pref 0) slots);
  check Alcotest.int "ge bound" 16
    (List.assoc (Bgp.Policy.S_match_ge (0, 0)) slots)

let suite =
  [ ("policy: prefix-rule le/ge semantics", `Quick, prefix_rule_semantics);
    ("policy: prefix-rule ge/le boundaries", `Quick, prefix_rule_boundaries);
    ("policy: community add/del idempotence", `Quick, community_sets_idempotent);
    ("policy: first match wins", `Quick, first_match_wins);
    ("policy: default deny", `Quick, default_deny);
    ("policy: set clauses", `Quick, sets_applied_in_order);
    ("policy: as-path matches", `Quick, as_path_matches);
    ("policy: normalize sorts by seq", `Quick, entries_sorted_by_seq);
    ("policy: community match/delete", `Quick, community_match_and_delete);
    ("policy: slots on generated maps", `Quick, slots_on_generated_maps);
    ("policy: slots expose constants", `Quick, slots_expose_constants) ]
