(* Checking only what a shadow changed: the per-speaker verdict memo
   and the deferred convergence digests, each against the full path it
   replaces. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let deploy ?(sparrow_nodes = []) graph =
  let build = Topology.Build.deploy ~sparrow_nodes graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  build

let random_graph ~seed ~transit ~stub =
  let params =
    { Topology.Generate.default_params with
      n_tier1 = 1;
      n_transit = transit;
      n_stub = stub }
  in
  Topology.Generate.generate ~params (Netsim.Rng.create seed)

(* A cut from [node], as a clone maker: every call spawns a fresh
   shadow of the same snapshot, running the live nodes' bug flags as
   the explorer's clones do. *)
let snapshot build ~node =
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node ()) in
  let bugs_of id = (Topology.Build.speaker build id).Bgp.Speaker.sp_bugs () in
  fun () -> Snapshot.Store.spawn ~bugs_of snap

let per_input graph =
  List.filter
    (fun (c : Dice.Checks.checker) -> c.Dice.Checks.scope = Dice.Checks.Per_input)
    (Dice.Checks.standard_suite (Dice.Checks.ground_truth_of_graph graph))

(* The explorer's pristine clone: spawned and run to quiescence. *)
let pristine clone =
  let sh = clone () in
  ignore (Snapshot.Store.run_to_quiescence sh);
  sh

(* A fresh clone with one input's wire bytes delivered at [node] over
   one of its sessions (the first by default), as the explorer replays
   it; the clone is not yet run. *)
let subject ?(session = 0) clone ~node input =
  let sh = clone () in
  let target = Snapshot.Store.speaker sh node in
  let peer = List.nth (target.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors session in
  let view = Dice.Sym_handler.view_of_speaker target ~peer:peer.Bgp.Config.addr in
  let input = ("neighbor_as", peer.Bgp.Config.remote_as) :: input in
  (match
     target.Bgp.Speaker.sp_process_raw
       ~from_node:(Bgp.Router.node_of_addr peer.Bgp.Config.addr)
       (Dice.Sym_handler.concretize view input)
   with
  | () -> ()
  | exception Bgp.Router.Crash _ -> ());
  sh

let verdict_string (v : Dice.Checks.verdict) =
  Printf.sprintf "%d %s %b %s" v.Dice.Checks.v_node v.Dice.Checks.v_property
    v.Dice.Checks.v_ok v.Dice.Checks.v_evidence

let suite_view results =
  List.map
    (fun ((c : Dice.Checks.checker), vs) ->
      (c.Dice.Checks.name, List.map verdict_string vs))
    results

let suite_t = Alcotest.(list (pair string (list string)))

(* The path the memo replaces: every checker over every speaker. *)
let full_sweep checkers sh =
  List.map (fun (c : Dice.Checks.checker) -> (c, c.Dice.Checks.run sh)) checkers

(* Announcements of owned /24s (and of space inside or around them),
   withdrawals, foreign origins, looped paths and stray prefixes.  The
   field names are the handler's input space; out-of-range values are
   clamped by the concolic context. *)
let gen_input ids =
  let open QCheck.Gen in
  let* withdraw = frequencyl [ (3, 0); (1, 1) ] in
  let* a, b, c, len =
    oneof
      [ (let* id = oneofl ids in
         let* len = frequencyl [ (4, 24); (1, 16); (1, 28) ] in
         return (192, id lsr 8, id land 0xFF, len));
        (let* b = int_bound 255 in
         let* c = int_bound 255 in
         return (8, b, c, 24));
        (let* a = oneofl [ 192; 10; 127; 0; 240; 8 ] in
         let* b = int_bound 255 in
         let* c = int_bound 255 in
         let* len = int_range 0 32 in
         return (a, b, c, len)) ]
  in
  let* origin = oneofl ids in
  let* path_len = int_range 1 4 in
  let* contains_self = frequencyl [ (2, 0); (1, 1) ] in
  let* med = int_bound 300 in
  let* local_pref = int_range 50 300 in
  return
    [ ("withdraw", withdraw); ("nlri_a", a); ("nlri_b", b); ("nlri_c", c);
      ("nlri_len", len); ("origin_as", Topology.Gao_rexford.asn_of_node origin);
      ("path_len", path_len); ("contains_self", contains_self); ("med", med);
      ("local_pref", local_pref) ]

type case = {
  seed : int;
  transit : int;
  stub : int;
  mixed : bool;  (** every other node runs Sparrow *)
  node : int;  (** index into the node ids *)
  faults : (int * int) list;  (** (kind, node index) injected before the cut *)
  inputs : (string * int) list list;
}

(* Faults that make verdicts differ between the pristine clone and a
   shadow: a loop-check bypass at the explored node lets a looped input
   in, an inverted MED comparison breaks the decision spec, and a bogus
   /8 announcement puts a martian in many Loc-RIBs. *)
let inject_of kind at =
  match kind with
  | 0 -> Dice.Inject.Loop_check_bug { at }
  | 1 -> Dice.Inject.Inverted_med_bug { at }
  | _ -> Dice.Inject.Bogus_netmask { at }

let gen_case =
  let open QCheck.Gen in
  let* seed = int_bound 10_000 in
  let* transit = int_range 1 3 in
  let* stub = int_range 2 4 in
  let* mixed = bool in
  let* node = int_bound 16 in
  let ids = List.init (1 + transit + stub) Fun.id in
  let* faults =
    frequency
      [ (1, return []);
        (3, map (fun kind -> [ (kind, node) ]) (int_bound 1));
        (2, list_size (int_range 1 2) (pair (int_bound 2) (int_bound 16))) ]
  in
  let* inputs = list_size (int_range 1 3) (gen_input ids) in
  return { seed; transit; stub; mixed; node; faults; inputs }

let print_case c =
  Printf.sprintf "seed=%d transit=%d stub=%d mixed=%b node=%d faults=[%s] inputs=[%s]"
    c.seed c.transit c.stub c.mixed c.node
    (String.concat "; " (List.map (fun (k, n) -> Printf.sprintf "%d@%d" k n) c.faults))
    (String.concat "; "
       (List.map
          (fun i ->
            String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) i))
          c.inputs))

let deploy_case c =
  let graph = random_graph ~seed:c.seed ~transit:c.transit ~stub:c.stub in
  let ids = Topology.Graph.node_ids graph in
  let sparrow_nodes =
    if c.mixed then List.filter (fun id -> (id + c.seed) mod 2 = 0) ids else []
  in
  let build = deploy ~sparrow_nodes graph in
  let nth i = List.nth ids (i mod List.length ids) in
  if c.faults <> [] then begin
    List.iter (fun (kind, i) -> Dice.Inject.apply build (inject_of kind (nth i))) c.faults;
    Topology.Build.run_for build (Netsim.Time.span_sec 10.)
  end;
  (graph, build, nth c.node)

(* Differential: for every replayed input, the memo's verdicts equal
   the full [checker.run] sweep over the same shadow, checker by
   checker and speaker by speaker, on healthy and faulty deployments.
   The explorer turns that list into faults and digests by a rule the
   memo does not touch, so equal verdicts mean equal faults and
   digests, in order. *)
let memo_matches_full_checking =
  QCheck.Test.make ~count:50 ~name:"checks: memo verdicts equal full checking"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let graph, build, node = deploy_case c in
      let clone = snapshot build ~node in
      let checkers = per_input graph in
      let memo = Dice.Checks.record checkers (pristine clone) in
      List.for_all
        (fun input ->
          let sh = subject clone ~node input in
          ignore (Dice.Checks.convergence ~budget:5_000 sh);
          let full = full_sweep checkers sh in
          let memoized = Dice.Checks.run_memo memo sh in
          if suite_view memoized = suite_view full then true
          else
            QCheck.Test.fail_reportf "memo and full checking disagree:@.%s@.vs@.%s"
              (String.concat "\n" (List.concat_map snd (suite_view memoized)))
              (String.concat "\n" (List.concat_map snd (suite_view full))))
        c.inputs)

(* The memo must actually be hit: a withdrawal of space nobody holds
   changes no Loc-RIB, so every Router speaker but the one that
   received it keeps the pristine RIB and reuses its verdicts.  An
   always-miss memo would still be correct, only as slow as before. *)
let untouched_router_hits () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let node = 1 in
  let clone = snapshot build ~node in
  let checkers = per_input graph in
  let memo = Dice.Checks.record checkers (pristine clone) in
  let quiet = pristine clone in
  List.iter
    (fun (id, sp) ->
      Alcotest.(check bool)
        (Printf.sprintf "quiesced clone: node %d reuses" id)
        true (Dice.Checks.reuses memo id sp))
    quiet.Snapshot.Store.sh_speakers;
  let sh =
    subject clone ~node
      [ ("withdraw", 1); ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 8); ("nlri_len", 24) ]
  in
  ignore (Dice.Checks.convergence sh);
  List.iter
    (fun (id, sp) ->
      if id <> node then
        Alcotest.(check bool)
          (Printf.sprintf "untouched node %d reuses" id)
          true (Dice.Checks.reuses memo id sp))
    sh.Snapshot.Store.sh_speakers;
  check suite_t "verdicts equal full checking"
    (suite_view (full_sweep checkers sh))
    (suite_view (Dice.Checks.run_memo memo sh))

(* Sparrow's [sp_rib] builds a fresh view on every call, so its nodes
   never match the record: they are always checked, with the same
   verdicts the full sweep gives. *)
let sparrow_always_checked () =
  let graph = Topology.Gadget.embedded () in
  let sparrow_nodes = [ 0; 2; 5; 8 ] in
  let build = deploy ~sparrow_nodes graph in
  let clone = snapshot build ~node:1 in
  let checkers = per_input graph in
  let memo = Dice.Checks.record checkers (pristine clone) in
  let sh = pristine clone in
  List.iter
    (fun (id, sp) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) reuses" id sp.Bgp.Speaker.sp_impl)
        (not (List.mem id sparrow_nodes))
        (Dice.Checks.reuses memo id sp))
    sh.Snapshot.Store.sh_speakers;
  check suite_t "verdicts equal full checking"
    (suite_view (full_sweep checkers sh))
    (suite_view (Dice.Checks.run_memo memo sh))

(* ------------------------------------------------------------------ *)
(* Deferred convergence digests                                        *)
(* ------------------------------------------------------------------ *)

(* The convergence loop as it was before digests were deferred: a
   fingerprint of every sample, taken when sampled.  Also returns the
   events it stepped. *)
let eager_convergence ~budget shadow =
  let eng = shadow.Snapshot.Store.sh_engine in
  let seen = Hashtbl.create 64 in
  let last = ref None in
  let sample () =
    let fp = Snapshot.Store.loc_rib_fingerprint shadow in
    let changed = !last <> Some fp in
    let known = Hashtbl.mem seen fp in
    Hashtbl.replace seen fp ();
    last := Some fp;
    changed && known
  in
  let rec go events revisited =
    if Netsim.Engine.pending eng = 0 then (`Quiesced, events)
    else if events >= budget then
      ((if revisited then `Oscillating else `Diverging), events)
    else begin
      let revisited =
        if events mod 100 = 0 then revisited || sample () else revisited
      in
      ignore (Netsim.Engine.step eng);
      go (events + 1) revisited
    end
  in
  let result, events = go 0 false in
  let v_ok, v_evidence =
    match result with
    | `Quiesced -> (true, "")
    | `Oscillating -> (false, "routing oscillation (state revisited)")
    | `Diverging -> (false, "no quiescence within event budget")
  in
  ( List.map
      (fun (id, _) ->
        { Dice.Checks.v_node = id; v_property = "convergence"; v_ok; v_evidence })
      shadow.Snapshot.Store.sh_speakers,
    events )

(* Both loops over two identical clones: equal verdicts, and the same
   number of events stepped (same engine clock and queue after). *)
let agrees ~budget make =
  let deferred = make () and eager = make () in
  let got = Dice.Checks.convergence ~budget deferred in
  let want, events = eager_convergence ~budget eager in
  check Alcotest.(list string) "verdicts" (List.map verdict_string want)
    (List.map verdict_string got);
  let clock (sh : Snapshot.Store.shadow) =
    ( Netsim.Time.to_us (Netsim.Engine.now sh.Snapshot.Store.sh_engine),
      Netsim.Engine.pending sh.Snapshot.Store.sh_engine )
  in
  check Alcotest.(pair int int) "engine state after" (clock eager) (clock deferred);
  (want, events)

let deferred_digest_clean () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let clone = snapshot build ~node:1 in
  let inputs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n:12
      (gen_input (Topology.Graph.node_ids graph))
  in
  List.iter
    (fun input ->
      let verdicts, _ = agrees ~budget:5_000 (fun () -> subject clone ~node:1 input) in
      Alcotest.(check bool) "quiesced" true
        (List.for_all (fun (v : Dice.Checks.verdict) -> v.Dice.Checks.v_ok) verdicts))
    inputs

(* A shadow that quiesces after its second sample and before its third
   (100 < events <= 200): the deferred loop holds two samples and
   digests neither.  A fresh prefix that a tier-1 router of an
   80-router graph hears from a customer floods the whole graph in
   about a hundred events. *)
let deferred_digest_two_samples () =
  let graph = Topology.Gao_rexford.scale_graph ~nodes:80 ~seed:42 in
  let build = deploy graph in
  let clone = snapshot build ~node:0 in
  let announce =
    [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 3); ("nlri_len", 24); ("path_len", 1) ]
  in
  let verdicts, events =
    agrees ~budget:5_000 (fun () -> subject ~session:2 clone ~node:0 announce)
  in
  Alcotest.(check bool)
    (Printf.sprintf "quiesced between samples 2 and 3 (%d events)" events)
    true
    (events > 100 && events <= 200);
  Alcotest.(check bool) "quiesced" true
    (List.for_all (fun (v : Dice.Checks.verdict) -> v.Dice.Checks.v_ok) verdicts)

(* BAD GADGET under a dispute wheel: the shadows run to the budget.
   With a budget of 150 events the run stops holding two undigested
   samples (divergence, no revisit possible); with longer budgets the
   held samples are digested and the revisit decides [Oscillating]
   exactly as the eager loop does. *)
let deferred_digest_dispute () =
  let graph = Topology.Gadget.bad_gadget () in
  let build = deploy graph in
  Dice.Inject.apply build
    (Dice.Inject.Policy_dispute
       { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
  Topology.Build.run_for build (Netsim.Time.span_sec 5.);
  let evidence budget =
    List.concat_map
      (fun node ->
        let verdicts, _ = agrees ~budget (snapshot build ~node) in
        List.map (fun (v : Dice.Checks.verdict) -> v.Dice.Checks.v_evidence) verdicts)
      Topology.Gadget.wheel
  in
  Alcotest.(check bool) "150 events: diverging" true
    (List.mem "no quiescence within event budget" (evidence 150));
  List.iter
    (fun budget ->
      Alcotest.(check bool)
        (Printf.sprintf "%d events: oscillating" budget)
        true
        (List.mem "routing oscillation (state revisited)" (evidence budget)))
    [ 1_000; 3_000 ]

let suite =
  [ qtest memo_matches_full_checking;
    ("checks: untouched Router speakers reuse verdicts", `Quick, untouched_router_hits);
    ("checks: Sparrow speakers are always checked", `Quick, sparrow_always_checked);
    ("checks: deferred digests on clean shadows", `Quick, deferred_digest_clean);
    ("checks: deferred digests, quiesced after two samples", `Quick,
      deferred_digest_two_samples);
    ("checks: deferred digests on dispute-wheel shadows", `Quick, deferred_digest_dispute) ]
