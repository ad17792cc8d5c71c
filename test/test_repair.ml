(* The diagnosis-and-repair engine: localization, symbolization, the
   solver-driven patch search, and the dice-repair/1 record. *)

let check = Alcotest.check
let p = Bgp.Prefix.of_string_exn

(* The minimized origin-hijack repro the fuzzer files: two gadget
   nodes, one operator-error mutation originating someone else's
   prefix. *)
let hijack_scenario =
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = Triage.Scenario.Gadget;
      dp_keep = Some [ 0; 9 ];
      dp_seed = 1;
      dp_inject = None;
      dp_settle_sec = 0.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz =
        [ Confuzz.Mutation.Originate_foreign
            { node = 9; prefix = p "192.0.0.0/24" } ];
      dp_cascade = false;
      dp_mode = Triage.Scenario.Direct { dr_node = 9; dr_peer = 0; dr_input = None } }

(* The bad-gadget dispute wheel: the injected pin entries (seq 5 on
   each cycle node's FROM-PEER map) sustain the oscillation. *)
let dispute_scenario =
  Triage.Scenario.Deploy
    { Triage.Scenario.dp_topo = Triage.Scenario.Bad_gadget;
      dp_keep = None;
      dp_seed = 7;
      dp_inject =
        Some (Dice.Inject.Policy_dispute { cycle = [ 1; 2; 3 ]; victim = 0 });
      dp_settle_sec = 0.;
      dp_churn = [];
      dp_mangle = None;
      dp_confuzz = [];
      dp_cascade = false;
      dp_mode = Triage.Scenario.Direct { dr_node = 0; dr_peer = 0; dr_input = None } }

let find_target cls scenario =
  let outcome = Triage.Scenario.run scenario in
  match
    List.find_opt
      (fun sg -> sg.Dice.Signature.sg_class = cls)
      outcome.Triage.Scenario.o_signatures
  with
  | Some sg -> sg
  | None -> Alcotest.failf "scenario does not detect a %s fault"
              (Dice.Fault.class_to_string cls)

let localize_finds_mutated_site () =
  let target = find_target Dice.Fault.Operator_mistake hijack_scenario in
  match Repair.Localize.run ~target hijack_scenario with
  | Error e -> Alcotest.failf "localize failed: %s" e
  | Ok ev ->
      Alcotest.(check bool) "baseline contains the target" true
        (List.exists (Dice.Signature.equal target) ev.Repair.Localize.ev_baseline);
      (match ev.Repair.Localize.ev_suspects with
      | top :: _ ->
          check Alcotest.string "mutated network statement ranked first"
            "n9/net/192.0.0.0/24"
            (Repair.Localize.site_id top.Repair.Localize.su_site)
      | [] -> Alcotest.fail "no suspects")

let localize_negative_evidence () =
  let target = find_target Dice.Fault.Policy_conflict dispute_scenario in
  match Repair.Localize.run ~target dispute_scenario with
  | Error e -> Alcotest.failf "localize failed: %s" e
  | Ok ev -> (
      let policy_sites =
        List.filter_map
          (fun su ->
            match su.Repair.Localize.su_site with
            | Repair.Localize.Policy_site { ps_node; ps_map; ps_seq } ->
                Some (su.Repair.Localize.su_site, (ps_node, ps_map, ps_seq))
            | _ -> None)
          ev.Repair.Localize.ev_suspects
      in
      match policy_sites with
      | [] -> Alcotest.fail "no policy suspects"
      | (site, (node, map, seq)) :: _ -> (
          (* a coverage report claiming the entry's action never fired
             excludes it outright *)
          let action_id = Printf.sprintf "n%d/%s/e%d/act" node map seq in
          match
            Repair.Localize.run ~negative:[ action_id ] ~target dispute_scenario
          with
          | Error e -> Alcotest.failf "negative localize failed: %s" e
          | Ok ev' ->
              Alcotest.(check bool) "uncovered site excluded" false
                (List.exists
                   (fun su ->
                     Repair.Localize.compare_site su.Repair.Localize.su_site site
                     = 0)
                   ev'.Repair.Localize.ev_suspects)))

let repair_hijack_end_to_end () =
  let target = find_target Dice.Fault.Operator_mistake hijack_scenario in
  match Repair.Search.run ~target hijack_scenario with
  | Error e -> Alcotest.failf "search failed: %s" e
  | Ok o -> (
      match o.Repair.Search.re_verified with
      | None -> Alcotest.fail "hijack must be repairable"
      | Some c ->
          Alcotest.(check bool) "patch is the inverse network-drop" true
            (c.Repair.Search.ca_patch
            = [ Confuzz.Mutation.Network_drop
                  { node = 9; prefix = p "192.0.0.0/24" } ]);
          (* the verifier's claim holds on an independent replay *)
          let o' =
            Triage.Scenario.run
              (Repair.Search.patched_scenario hijack_scenario
                 c.Repair.Search.ca_patch)
          in
          Alcotest.(check bool) "target signature gone" false
            (List.exists (Dice.Signature.equal target)
               o'.Triage.Scenario.o_signatures))

let repair_dispute_end_to_end () =
  let target = find_target Dice.Fault.Policy_conflict dispute_scenario in
  match Repair.Search.run ~target dispute_scenario with
  | Error e -> Alcotest.failf "search failed: %s" e
  | Ok o -> (
      match o.Repair.Search.re_verified with
      | None -> Alcotest.fail "dispute wheel must be repairable"
      | Some c ->
          Alcotest.(check bool) "patch is non-empty" true
            (c.Repair.Search.ca_patch <> []);
          let o' =
            Triage.Scenario.run
              (Repair.Search.patched_scenario dispute_scenario
                 c.Repair.Search.ca_patch)
          in
          Alcotest.(check bool) "oscillation repaired" false
            (List.exists (Dice.Signature.equal target)
               o'.Triage.Scenario.o_signatures);
          Alcotest.(check bool) "no new signatures" true
            (List.for_all
               (fun sg ->
                 List.exists (Dice.Signature.equal sg)
                   o.Repair.Search.re_evidence.Repair.Localize.ev_baseline)
               o'.Triage.Scenario.o_signatures))

let repair_deterministic () =
  let target = find_target Dice.Fault.Operator_mistake hijack_scenario in
  let record () =
    match Repair.Search.run ~target hijack_scenario with
    | Error e -> Alcotest.failf "search failed: %s" e
    | Ok o -> Telemetry.Json.to_string (Repair.Report.of_outcome o)
  in
  let r1 = record () in
  let r2 = record () in
  check Alcotest.string "repair twice, byte-identical records" r1 r2

let report_record_validates () =
  let target = find_target Dice.Fault.Operator_mistake hijack_scenario in
  match Repair.Search.run ~target hijack_scenario with
  | Error e -> Alcotest.failf "search failed: %s" e
  | Ok o ->
      let r = Repair.Report.of_outcome o in
      (match Repair.Report.validate r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "record invalid: %s" e);
      check Alcotest.string "status" "verified" (Repair.Report.status r);
      Alcotest.(check bool) "schema mismatch rejected" true
        (Result.is_error
           (Repair.Report.validate
              (Telemetry.Json.Obj
                 [ ("schema", Telemetry.Json.String "dice-repair/0") ])));
      Alcotest.(check bool) "status enum enforced" true
        (Result.is_error
           (Repair.Report.validate
              (Telemetry.Json.Obj
                 [ ("schema", Telemetry.Json.String "dice-repair/1");
                   ("status", Telemetry.Json.String "maybe") ])))

let unrepairable_class_rejected () =
  let bogus =
    Dice.Signature.make ~node:1 ~property:"handler-crash"
      Dice.Fault.Programming_error "crash"
  in
  Alcotest.(check bool) "programming errors are not config bugs" true
    (Result.is_error (Repair.Search.run ~target:bogus hijack_scenario));
  let cascade =
    Dice.Signature.make ~node:1 ~property:"route-oscillation" Dice.Fault.Cascade
      "flap"
  in
  Alcotest.(check bool) "cascades are diagnosed, not patched" true
    (Result.is_error (Repair.Search.run ~target:cascade hijack_scenario))

let with_temp_dir f =
  let dir = Filename.temp_file "repair-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let auto_triage_repairs_after_filing () =
  with_temp_dir @@ fun dir ->
  let outcome = Triage.Scenario.run hijack_scenario in
  let fault =
    match
      List.find_opt
        (fun f -> f.Dice.Fault.f_class = Dice.Fault.Operator_mistake)
        outcome.Triage.Scenario.o_faults
    with
    | Some f -> f
    | None -> Alcotest.fail "hijack fault not detected"
  in
  let repair scenario sg =
    match Repair.Search.run ~target:sg scenario with
    | Ok o -> Some (Repair.Report.of_outcome o)
    | Error _ -> None
  in
  let graph =
    match hijack_scenario with
    | Triage.Scenario.Deploy d -> Triage.Scenario.graph_of d
    | _ -> assert false
  in
  let collector =
    Triage.Auto.collector ~minimize:false ~repair ~corpus_dir:dir
      ~scenario:hijack_scenario ~graph ()
  in
  match Triage.Auto.file_fault collector fault with
  | None -> Alcotest.fail "collector skipped a fresh fault"
  | Some filed -> (
      match filed.Triage.Auto.fd_entry with
      | None -> Alcotest.fail "fault not filed"
      | Some entry ->
          check Alcotest.string "entry carries a verified repair" "verified"
            (Triage.Corpus.repair_status_name
               (Triage.Corpus.repair_status entry));
          (* and the patched scenario decodes straight from the corpus *)
          (match Triage.Corpus.patched_scenario entry with
          | Some patched ->
              let o = Triage.Scenario.run patched in
              Alcotest.(check bool) "corpus patch kills the signature" false
                (List.exists
                   (Dice.Signature.equal filed.Triage.Auto.fd_signature)
                   o.Triage.Scenario.o_signatures)
          | None -> Alcotest.fail "verified entry must yield a patched scenario"))

(* --- the repair-side evaluation is the concrete one ------------------- *)

(* Random unsorted maps (duplicate seqs included) over every match form,
   and witnesses drawn from the same prefixes and communities. *)
let arb_map_and_witness =
  let open QCheck.Gen in
  let prefixes =
    List.map p
      [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.1.0/24"; "192.0.2.0/24"; "192.0.2.128/25" ]
  in
  let communities = [ Bgp.Community.make 65000 1; Bgp.Community.make 65000 2 ] in
  let rule =
    let* pf = oneofl prefixes in
    let bound = opt (int_range (Bgp.Prefix.len pf) 32) in
    let* ge = bound and* le = bound in
    return (Bgp.Policy.prefix_rule ?ge ?le pf)
  in
  let clause =
    oneof
      [ map (fun rs -> Bgp.Policy.Match_prefix rs) (list_size (int_range 1 2) rule);
        map (fun c -> Bgp.Policy.Match_community c) (oneofl communities);
        map (fun o -> Bgp.Policy.Match_origin o) (oneofl Bgp.Attr.[ Igp; Incomplete ]);
        map
          (fun asn -> Bgp.Policy.Match_as_path (Bgp.Policy.Path_contains asn))
          (oneofl [ 1; 2 ]) ]
  in
  let entry =
    let* seq = oneofl [ 10; 20; 30 ] in
    let* action = oneofl [ Bgp.Policy.Permit; Bgp.Policy.Deny ] in
    let* matches = list_size (int_bound 2) clause in
    let* lp = opt (int_bound 1000) in
    let sets = Option.to_list (Option.map (fun v -> Bgp.Policy.Set_local_pref v) lp) in
    return (Bgp.Policy.entry seq action ~matches ~sets)
  in
  let witness =
    let* base = oneofl prefixes in
    let* len = int_range (Bgp.Prefix.len base) 32 in
    let* comms = list_size (int_bound 2) (oneofl communities) in
    let* origin = oneofl Bgp.Attr.[ Igp; Incomplete ] in
    let* asn = oneofl [ 1; 2; 3 ] in
    let attrs =
      Bgp.Attr.make ~origin ~communities:comms ~as_path:[ Bgp.As_path.Seq [ asn ] ]
        ~next_hop:(Bgp.Ipv4.of_string_exn "10.0.0.2") ()
    in
    return
      { Repair.Localize.w_prefix = Bgp.Prefix.make (Bgp.Prefix.addr base) len;
        w_attrs_in = attrs;
        w_out = None }
  in
  QCheck.make
    ~print:(fun (map, w) ->
      Format.asprintf "%a@.witness %s" Bgp.Policy.pp map
        (Bgp.Prefix.to_string w.Repair.Localize.w_prefix))
    (pair (list_size (int_range 1 4) entry) witness)

let repair_match_is_deciding =
  QCheck.Test.make
    ~name:"symbolize: the suspect's match formula at deployed constants is Policy.deciding"
    ~count:500 arb_map_and_witness
    (fun (map, w) ->
      let seqs =
        List.sort_uniq Int.compare (List.map (fun e -> e.Bgp.Policy.seq) map)
      in
      List.for_all
        (fun seq ->
          let site =
            Repair.Localize.Policy_site { ps_node = 1; ps_map = "M"; ps_seq = seq }
          in
          match Repair.Symbolize.lift ~site ~seq map with
          | None -> false
          | Some (bindings, entry_match) ->
              let deployed (v : Concolic.Expr.var) =
                (List.find
                   (fun b ->
                     b.Repair.Symbolize.b_var.Concolic.Expr.v_id = v.Concolic.Expr.v_id)
                   bindings)
                  .Repair.Symbolize.b_orig
              in
              let suspect = List.find (fun e -> e.Bgp.Policy.seq = seq) map in
              let symbolic =
                match entry_match w with
                | None -> false
                | Some m -> Concolic.Expr.eval deployed m <> 0
              in
              let concrete =
                match
                  Bgp.Policy.deciding map w.Repair.Localize.w_prefix
                    w.Repair.Localize.w_attrs_in
                with
                | Some e -> e == suspect
                | None -> false
              in
              symbolic = concrete)
        seqs)

(* The sort-everything dedupe that [Localize.dedupe_witnesses]
   replaced: sort every traced witness, drop adjacent equals, keep the
   first 8. *)
let reference_dedupe ws =
  let sorted = List.sort Repair.Localize.compare_witness ws in
  let rec uniq = function
    | a :: (b :: _ as rest) ->
        if Repair.Localize.compare_witness a b = 0 then uniq rest else a :: uniq rest
    | l -> l
  in
  List.filteri (fun i _ -> i < 8) (uniq sorted)

(* Witnesses drawn from a small space, so a list repeats each many
   times; every draw builds a fresh record, so equal witnesses are
   never physically shared. *)
let gen_witness =
  let open QCheck.Gen in
  let* prefix = oneofl [ "192.0.0.0/24"; "192.0.1.0/24"; "10.0.0.0/8"; "192.0.0.0/16" ] in
  let* path = list_size (int_bound 3) (int_range 1 5) in
  let* local_pref = opt (oneofl [ 100; 200 ]) in
  let* med = opt (int_bound 2) in
  let* communities = list_size (int_bound 1) (int_bound 2) in
  let* out = bool in
  let attrs =
    Bgp.Attr.make
      ~as_path:(List.fold_right Bgp.As_path.prepend path Bgp.As_path.empty)
      ~local_pref ~med
      ~communities:(List.map (fun v -> Bgp.Community.make 65000 v) communities)
      ~next_hop:(Bgp.Router.addr_of_node 1) ()
  in
  return
    { Repair.Localize.w_prefix = p prefix;
      w_attrs_in = attrs;
      w_out = (if out then Some { attrs with Bgp.Attr.local_pref = Some 300 } else None) }

let dedupe_matches_reference =
  QCheck.Test.make ~count:300 ~name:"localize: witness dedupe equals the sort-everything dedupe"
    (QCheck.make
       ~print:(fun ws -> Printf.sprintf "%d witnesses" (List.length ws))
       QCheck.Gen.(list_size (int_bound 400) gen_witness))
    (fun ws ->
      let got = Repair.Localize.dedupe_witnesses ws and want = reference_dedupe ws in
      List.length got = List.length want
      && List.for_all2 (fun a b -> Repair.Localize.compare_witness a b = 0) got want)

let suite =
  [ ("localize: hijack names the network statement", `Quick,
     localize_finds_mutated_site);
    ("localize: uncovered clause ids exclude sites", `Quick,
     localize_negative_evidence);
    ("search: origin hijack repaired end-to-end", `Quick,
     repair_hijack_end_to_end);
    ("search: dispute wheel repaired end-to-end", `Quick,
     repair_dispute_end_to_end);
    ("search: repair is deterministic", `Quick, repair_deterministic);
    ("report: record validates", `Quick, report_record_validates);
    ("search: unrepairable classes rejected", `Quick,
     unrepairable_class_rejected);
    ("auto: repair hook runs after filing", `Slow,
     auto_triage_repairs_after_filing);
    QCheck_alcotest.to_alcotest repair_match_is_deciding;
    QCheck_alcotest.to_alcotest dedupe_matches_reference ]
