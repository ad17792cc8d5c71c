(* IPv4 addresses, CIDR prefixes, and the radix trie. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let ipv4_parse () =
  check Alcotest.string "roundtrip" "192.168.1.42"
    (Bgp.Ipv4.to_string (Bgp.Ipv4.of_string_exn "192.168.1.42"));
  Alcotest.(check bool) "rejects 256" true
    (Result.is_error (Bgp.Ipv4.of_string "1.2.3.256"));
  Alcotest.(check bool) "rejects short" true (Result.is_error (Bgp.Ipv4.of_string "1.2.3"));
  Alcotest.(check bool) "rejects junk" true
    (Result.is_error (Bgp.Ipv4.of_string "1.2.3.4x"))

let ipv4_bits () =
  let a = Bgp.Ipv4.of_string_exn "128.0.0.1" in
  Alcotest.(check bool) "bit 0 set" true (Bgp.Ipv4.bit a 0);
  Alcotest.(check bool) "bit 1 clear" false (Bgp.Ipv4.bit a 1);
  Alcotest.(check bool) "bit 31 set" true (Bgp.Ipv4.bit a 31)

let ipv4_martians () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) s expect (Bgp.Ipv4.is_martian (Bgp.Ipv4.of_string_exn s)))
    [ ("127.0.0.1", true); ("0.1.2.3", true); ("240.0.0.1", true);
      ("255.255.255.255", true); ("8.8.8.8", false); ("192.0.2.1", false) ]

let prefix_canonical () =
  let p = Bgp.Prefix.make (Bgp.Ipv4.of_string_exn "10.1.2.3") 8 in
  check Alcotest.string "host bits zeroed" "10.0.0.0/8" (Bgp.Prefix.to_string p);
  Alcotest.(check bool) "parse rejects non-canonical" true
    (Result.is_error (Bgp.Prefix.of_string "10.1.0.0/8"));
  check Alcotest.string "parse canonical" "10.0.0.0/8"
    (Bgp.Prefix.to_string (Bgp.Prefix.of_string_exn "10.0.0.0/8"))

let prefix_mem_subsumes () =
  let p8 = Bgp.Prefix.of_string_exn "10.0.0.0/8" in
  let p16 = Bgp.Prefix.of_string_exn "10.5.0.0/16" in
  let other = Bgp.Prefix.of_string_exn "11.0.0.0/16" in
  Alcotest.(check bool) "mem inside" true (Bgp.Prefix.mem (Bgp.Ipv4.of_string_exn "10.9.9.9") p8);
  Alcotest.(check bool) "mem outside" false (Bgp.Prefix.mem (Bgp.Ipv4.of_string_exn "11.0.0.1") p8);
  Alcotest.(check bool) "subsumes more specific" true (Bgp.Prefix.subsumes p8 p16);
  Alcotest.(check bool) "not reverse" false (Bgp.Prefix.subsumes p16 p8);
  Alcotest.(check bool) "disjoint" false (Bgp.Prefix.subsumes p8 other);
  Alcotest.(check bool) "self" true (Bgp.Prefix.subsumes p8 p8)

let prefix_split () =
  let p = Bgp.Prefix.of_string_exn "10.0.0.0/8" in
  match Bgp.Prefix.split p with
  | Some (lo, hi) ->
      check Alcotest.string "low half" "10.0.0.0/9" (Bgp.Prefix.to_string lo);
      check Alcotest.string "high half" "10.128.0.0/9" (Bgp.Prefix.to_string hi)
  | None -> Alcotest.fail "split /8 must succeed"

let prefix_gen =
  QCheck.Gen.(
    map2
      (fun addr len -> Bgp.Prefix.make (Bgp.Ipv4.of_int32_exn addr) len)
      (map (fun x -> abs x land 0xFFFF_FFFF) int)
      (int_bound 32))

let arb_prefix = QCheck.make ~print:Bgp.Prefix.to_string prefix_gen

let prefix_subsume_mem =
  QCheck.Test.make ~name:"prefix: subsumption agrees with membership" ~count:500
    (QCheck.pair arb_prefix arb_prefix)
    (fun (p, q) ->
      (* p subsumes q iff q's base address is in p and q is at least as long *)
      Bgp.Prefix.subsumes p q
      = (Bgp.Prefix.len q >= Bgp.Prefix.len p && Bgp.Prefix.mem (Bgp.Prefix.addr q) p))

(* --- trie vs a reference map --- *)

let trie_basics () =
  let open Bgp.Prefix_trie in
  let p s = Bgp.Prefix.of_string_exn s in
  let t =
    empty
    |> add (p "10.0.0.0/8") "eight"
    |> add (p "10.5.0.0/16") "sixteen"
    |> add (p "0.0.0.0/0") "default"
  in
  check Alcotest.int "cardinal" 3 (cardinal t);
  check (Alcotest.option Alcotest.string) "exact" (Some "sixteen") (find (p "10.5.0.0/16") t);
  check (Alcotest.option Alcotest.string) "exact miss" None (find (p "10.5.0.0/24") t);
  (match longest_match (Bgp.Ipv4.of_string_exn "10.5.1.1") t with
  | Some (pre, v) ->
      check Alcotest.string "lpm value" "sixteen" v;
      check Alcotest.string "lpm prefix" "10.5.0.0/16" (Bgp.Prefix.to_string pre)
  | None -> Alcotest.fail "lpm must hit");
  (match longest_match (Bgp.Ipv4.of_string_exn "11.1.1.1") t with
  | Some (_, v) -> check Alcotest.string "falls to default" "default" v
  | None -> Alcotest.fail "default must match");
  let t = remove (p "10.5.0.0/16") t in
  (match longest_match (Bgp.Ipv4.of_string_exn "10.5.1.1") t with
  | Some (_, v) -> check Alcotest.string "after removal" "eight" v
  | None -> Alcotest.fail "must still match /8");
  check Alcotest.int "covered count" 2
    (List.length (covered (p "0.0.0.0/0") t))

(* The reference is a [Prefix.Map] built by [Map.add], so the last
   binding of a prefix wins, as in [Prefix_trie.of_list]. *)
let model_of bindings =
  List.fold_left (fun m (p, v) -> Bgp.Prefix.Map.add p v m) Bgp.Prefix.Map.empty bindings

let trie_model =
  QCheck.Test.make ~name:"trie: behaves like an association list" ~count:300
    (QCheck.list (QCheck.pair arb_prefix QCheck.small_int))
    (fun bindings ->
      let t = Bgp.Prefix_trie.of_list bindings and model = model_of bindings in
      List.for_all
        (fun (p, _) -> Bgp.Prefix_trie.find p t = Bgp.Prefix.Map.find_opt p model)
        bindings
      (* [fold] walks in ascending prefix order, the order of the Map. *)
      && List.rev (Bgp.Prefix_trie.fold (fun p v acc -> (p, v) :: acc) t [])
         = Bgp.Prefix.Map.bindings model)

let trie_lpm_model =
  QCheck.Test.make ~name:"trie: longest match equals naive scan" ~count:300
    (QCheck.pair
       (QCheck.list (QCheck.pair arb_prefix QCheck.small_int))
       (QCheck.map (fun x -> Bgp.Ipv4.of_int32_exn (abs x land 0xFFFF_FFFF)) QCheck.int))
    (fun (bindings, addr) ->
      let t = Bgp.Prefix_trie.of_list bindings and model = model_of bindings in
      (* The longest of the address's 33 masked prefixes that is bound. *)
      let naive =
        List.fold_left
          (fun acc len ->
            let p = Bgp.Prefix.make addr len in
            match Bgp.Prefix.Map.find_opt p model with
            | Some v -> Some (p, v)
            | None -> acc)
          None (List.init 33 Fun.id)
      in
      match (Bgp.Prefix_trie.longest_match addr t, naive) with
      | None, None -> true
      | Some (p, v), Some (q, w) -> Bgp.Prefix.equal p q && v = w
      | Some _, None | None, Some _ -> false)

let trie_persistent () =
  let p s = Bgp.Prefix.of_string_exn s in
  let t1 = Bgp.Prefix_trie.(empty |> add (p "10.0.0.0/8") 1) in
  let t2 = Bgp.Prefix_trie.add (p "11.0.0.0/8") 2 t1 in
  check Alcotest.int "original untouched" 1 (Bgp.Prefix_trie.cardinal t1);
  check Alcotest.int "new has both" 2 (Bgp.Prefix_trie.cardinal t2)

(* --- the sharing-aware diff against a naive comparison --- *)

(* An edit of a trie.  [Fresh] binds a newly allocated string, equal to
   an older one when the numbers match; [Same] binds again the very
   value already bound, which changes nothing. *)
type edit = Fresh of Bgp.Prefix.t * int | Same of Bgp.Prefix.t | Remove of Bgp.Prefix.t

let apply_edit t = function
  | Fresh (p, v) -> Bgp.Prefix_trie.add p (string_of_int v) t
  | Same p -> (
      match Bgp.Prefix_trie.find p t with
      | Some v -> Bgp.Prefix_trie.add p v t
      | None -> t)
  | Remove p -> Bgp.Prefix_trie.remove p t

let print_edit = function
  | Fresh (p, v) -> Printf.sprintf "add %s %d" (Bgp.Prefix.to_string p) v
  | Same p -> "same " ^ Bgp.Prefix.to_string p
  | Remove p -> "remove " ^ Bgp.Prefix.to_string p

(* Nested and neighbouring prefixes, so edits collide and share paths. *)
let diff_prefix_gen =
  QCheck.Gen.(
    oneof
      [ oneofl
          (List.map Bgp.Prefix.of_string_exn
             [ "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/16"; "10.128.0.0/9"; "10.1.2.0/24";
               "192.0.2.0/24"; "192.0.2.128/25"; "255.255.255.255/32" ]);
        prefix_gen ])

let edit_gen =
  QCheck.Gen.(
    let* p = diff_prefix_gen in
    frequency
      [ (3, map (fun v -> Fresh (p, v)) (int_bound 3)); (2, return (Same p));
        (2, return (Remove p)) ])

let trie_bindings t = List.rev (Bgp.Prefix_trie.fold (fun p v acc -> (p, v) :: acc) t [])

(* Every prefix bound in either trie whose two bindings are not one
   physical value, from the two tries' full enumerations. *)
let naive_diff a b =
  let ba = trie_bindings a and bb = trie_bindings b in
  List.sort_uniq Bgp.Prefix.compare (List.map fst ba @ List.map fst bb)
  |> List.filter_map (fun p ->
         let find l = List.assoc_opt p l in
         match (find ba, find bb) with
         | Some x, Some y when x == y -> None
         | va, vb -> Some (p, va, vb))

let same_binding x y =
  match (x, y) with
  | None, None -> true
  | Some x, Some y -> x == y
  | Some _, None | None, Some _ -> false

let trie_fold_diff_model =
  QCheck.Test.make ~name:"trie: fold_diff equals a naive comparison" ~count:500
    (QCheck.make
       ~print:(fun (base, ea, eb) ->
         let edits l = String.concat "; " (List.map print_edit l) in
         Printf.sprintf "base [%s] a [%s] b [%s]" (edits base) (edits ea) (edits eb))
       QCheck.Gen.(
         triple
           (list_size (int_bound 20) edit_gen)
           (list_size (int_bound 6) edit_gen)
           (list_size (int_bound 6) edit_gen)))
    (fun (base, ea, eb) ->
      let base = List.fold_left apply_edit Bgp.Prefix_trie.empty base in
      let a = List.fold_left apply_edit base ea and b = List.fold_left apply_edit base eb in
      let got =
        List.rev (Bgp.Prefix_trie.fold_diff (fun p x y acc -> (p, x, y) :: acc) a b [])
      in
      let want = naive_diff a b in
      List.compare_lengths got want = 0
      && List.for_all2
           (fun (p, x, y) (q, x', y') ->
             Bgp.Prefix.equal p q && same_binding x x' && same_binding y y')
           got want)

let trie_fold_diff_sharing () =
  let p = Bgp.Prefix.of_string_exn "10.0.0.0/8" in
  let base =
    Bgp.Prefix_trie.of_list [ (p, "x"); (Bgp.Prefix.of_string_exn "11.0.0.0/8", "y") ]
  in
  let diff a b =
    Bgp.Prefix_trie.fold_diff (fun p _ _ acc -> Bgp.Prefix.to_string p :: acc) a b []
  in
  check Alcotest.(list string) "itself" [] (diff base base);
  check Alcotest.(list string) "the same value again" []
    (diff base (apply_edit base (Same p)));
  check Alcotest.(list string) "an equal but fresh value" [ "10.0.0.0/8" ]
    (diff base (Bgp.Prefix_trie.add p (String.concat "" [ "x" ]) base));
  check Alcotest.(list string) "removed" [ "10.0.0.0/8" ]
    (diff base (apply_edit base (Remove p)))

(* --- path compression: canonical shape, lookups and the diff on nested prefixes --- *)

(* Prefixes of a handful of addresses, at every length from /0 to /32:
   they nest, and two of them part at any bit, so tries built of them
   split and merge their compressed nodes at every depth. *)
let nested_prefix_gen =
  QCheck.Gen.(
    let* base =
      oneofl [ 0x0A00_0000; 0x0A01_0203; 0x0A80_0000; 0xC000_0280; 0xFFFF_FFFF ]
    in
    let* flip = oneofl [ 0; 0; 1; 1 lsl 7; 1 lsl 15; 1 lsl 24; 1 lsl 31 ] in
    map (fun len -> Bgp.Prefix.make (Bgp.Ipv4.of_int32_exn (base lxor flip)) len) (int_bound 32))

let print_prefixes l = String.concat " " (List.map Bgp.Prefix.to_string l)

(* The same bindings reached two ways: inserted in order, or inserted
   in reverse among other prefixes that are then removed (and with
   every binding first made with a stale value).  The tries are
   structurally equal. *)
let trie_canonical =
  QCheck.Test.make ~name:"trie: equal bindings give equal tries, whatever the order" ~count:500
    (QCheck.make
       ~print:(fun (keep, noise) ->
         Printf.sprintf "keep [%s] noise [%s]" (print_prefixes keep) (print_prefixes noise))
       QCheck.Gen.(
         pair (list_size (int_bound 25) nested_prefix_gen)
           (list_size (int_bound 25) nested_prefix_gen)))
    (fun (keep, noise) ->
      let keep = List.sort_uniq Bgp.Prefix.compare keep in
      let value p = Bgp.Prefix.len p in
      let straight = Bgp.Prefix_trie.of_list (List.map (fun p -> (p, value p)) keep) in
      let roundabout =
        let t = List.fold_left (fun t p -> Bgp.Prefix_trie.add p (-1) t) Bgp.Prefix_trie.empty noise in
        let t = List.fold_left (fun t p -> Bgp.Prefix_trie.add p (-2) t) t (List.rev keep) in
        let t =
          List.fold_left
            (fun t p -> if List.mem p keep then t else Bgp.Prefix_trie.remove p t)
            t (List.rev noise)
        in
        List.fold_left (fun t p -> Bgp.Prefix_trie.add p (value p) t) t keep
      in
      (straight = roundabout
      && Bgp.Prefix_trie.bindings straight = List.map (fun p -> (p, value p)) keep
      && Bgp.Prefix_trie.cardinal straight = List.length keep)
      || QCheck.Test.fail_reportf "bindings %s vs %s"
           (print_prefixes (List.map fst (Bgp.Prefix_trie.bindings straight)))
           (print_prefixes (List.map fst (Bgp.Prefix_trie.bindings roundabout))))

let trie_lookups_naive =
  QCheck.Test.make ~name:"trie: longest_match and covered equal a naive scan" ~count:500
    (QCheck.make
       ~print:(fun (l, q, a) ->
         Printf.sprintf "bound [%s] covering %s address %s" (print_prefixes l)
           (Bgp.Prefix.to_string q) (Bgp.Ipv4.to_string a))
       QCheck.Gen.(
         triple
           (list_size (int_bound 30) nested_prefix_gen)
           nested_prefix_gen
           (map (fun p -> Bgp.Prefix.addr p) nested_prefix_gen)))
    (fun (l, q, addr) ->
      let bound = List.sort_uniq Bgp.Prefix.compare l in
      let t = Bgp.Prefix_trie.of_list (List.map (fun p -> (p, Bgp.Prefix.to_string p)) bound) in
      let longest =
        List.fold_left
          (fun best p ->
            if Bgp.Prefix.mem addr p then
              match best with
              | Some b when Bgp.Prefix.len b >= Bgp.Prefix.len p -> best
              | Some _ | None -> Some p
            else best)
          None bound
      in
      Option.map fst (Bgp.Prefix_trie.longest_match addr t) = longest
      && Bgp.Prefix_trie.covered q t
         = List.filter_map
             (fun p -> if Bgp.Prefix.subsumes q p then Some (p, Bgp.Prefix.to_string p) else None)
             bound
      && List.for_all (fun p -> Bgp.Prefix_trie.mem p t) bound
      && Bgp.Prefix_trie.mem q t = List.mem q bound)

(* The diff between versions whose edits split compressed paths (a
   prefix between two bound ones, or parting from one below the root)
   and merge them (a removal that leaves a branch with one side). *)
let trie_fold_diff_nested =
  QCheck.Test.make ~name:"trie: fold_diff after splits and merges equals a naive comparison"
    ~count:500
    (QCheck.make
       ~print:(fun (base, ea, eb) ->
         let edits l = String.concat "; " (List.map print_edit l) in
         Printf.sprintf "base [%s] a [%s] b [%s]" (edits base) (edits ea) (edits eb))
       QCheck.Gen.(
         let edit =
           let* p = nested_prefix_gen in
           frequency
             [ (3, map (fun v -> Fresh (p, v)) (int_bound 3)); (1, return (Same p));
               (3, return (Remove p)) ]
         in
         triple
           (list_size (int_bound 30) (map (fun p -> Fresh (p, 0)) nested_prefix_gen))
           (list_size (int_bound 10) edit)
           (list_size (int_bound 10) edit)))
    (fun (base, ea, eb) ->
      let base = List.fold_left apply_edit Bgp.Prefix_trie.empty base in
      let a = List.fold_left apply_edit base ea and b = List.fold_left apply_edit base eb in
      let got =
        List.rev (Bgp.Prefix_trie.fold_diff (fun p x y acc -> (p, x, y) :: acc) a b [])
      in
      let want = naive_diff a b in
      List.compare_lengths got want = 0
      && List.for_all2
           (fun (p, x, y) (q, x', y') ->
             Bgp.Prefix.equal p q && same_binding x x' && same_binding y y')
           got want)

let suite =
  [ ("ipv4: parse/print", `Quick, ipv4_parse);
    ("ipv4: bit indexing", `Quick, ipv4_bits);
    ("ipv4: martians", `Quick, ipv4_martians);
    ("prefix: canonicalization", `Quick, prefix_canonical);
    ("prefix: mem and subsumes", `Quick, prefix_mem_subsumes);
    ("prefix: split", `Quick, prefix_split);
    qtest prefix_subsume_mem;
    ("trie: basics", `Quick, trie_basics);
    qtest trie_model;
    qtest trie_lpm_model;
    ("trie: persistence", `Quick, trie_persistent);
    qtest trie_fold_diff_model;
    ("trie: fold_diff skips shared values, reports fresh ones", `Quick,
      trie_fold_diff_sharing);
    qtest trie_canonical;
    qtest trie_lookups_naive;
    qtest trie_fold_diff_nested ]
