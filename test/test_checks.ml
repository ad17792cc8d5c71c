(* Checking only what changed: the per-speaker verdict memo, within a
   cut and across cuts, the deferred convergence digests and the stop
   at a full-state recurrence, each against the full path it
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

let make_cut build =
  Snapshot.Cut.create
    ~speakers:(fun id -> Topology.Build.speaker build id)
    build.Topology.Build.net

(* A cut from [node], as a clone maker: every call spawns a fresh
   shadow of the same snapshot. *)
let snapshot ?bugs_of build ~node =
  let cut = make_cut build in
  let snap = Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut ~node ()) in
  fun () -> Snapshot.Store.spawn ?bugs_of snap

let scoped gt scope =
  List.filter
    (fun (c : Dice.Checks.checker) -> c.Dice.Checks.scope = scope)
    (Dice.Checks.standard_suite gt)

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

(* [run_memo] over one shadow against the full sweep, in order. *)
let agrees_with_full gt scope sh =
  let memoized = suite_view (Dice.Checks.run_memo gt scope sh) in
  let full = suite_view (full_sweep (scoped gt scope) sh) in
  memoized = full
  || QCheck.Test.fail_reportf "memo and full checking disagree:@.%s@.vs@.%s"
       (String.concat "\n" (List.concat_map snd memoized))
       (String.concat "\n" (List.concat_map snd full))

(* One cut as the explorer checks it: the pristine clone recorded into
   [gt]'s memo and its baseline and per-input verdicts, then every
   input's shadow, each against the full sweep.  The explorer turns
   these lists into faults and digests by a rule the memo does not
   touch, so equal verdicts mean equal faults and digests, in order. *)
let cut_agrees gt clone ~node inputs =
  let p = pristine clone in
  ignore (Dice.Checks.record gt p);
  agrees_with_full gt Dice.Checks.Baseline p
  && agrees_with_full gt Dice.Checks.Per_input p
  && List.for_all
       (fun input ->
         let sh = subject clone ~node input in
         ignore (Dice.Checks.convergence ~budget:5_000 sh);
         agrees_with_full gt Dice.Checks.Per_input sh)
       inputs

(* Differential on one cut, on healthy and faulty deployments. *)
let memo_matches_full_checking =
  QCheck.Test.make ~count:50 ~name:"checks: memo verdicts equal full checking"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let graph, build, node = deploy_case c in
      cut_agrees (Dice.Checks.ground_truth_of_graph graph) (snapshot build ~node) ~node
        c.inputs)

(* What the live deployment goes through between two cuts. *)
type between =
  | Quiet
  | Flap of int  (** a session of this node index's, down past the hold time *)
  | Fault of int * int  (** (kind, node index), as {!inject_of} *)
  | Hijack of int * int  (** (hijacker, victim) node indices *)
  | Reconfig of int  (** an equal but fresh config at this node index *)

let print_between = function
  | Quiet -> "quiet"
  | Flap i -> Printf.sprintf "flap@%d" i
  | Fault (k, i) -> Printf.sprintf "fault%d@%d" k i
  | Hijack (i, j) -> Printf.sprintf "hijack@%d of %d" i j
  | Reconfig i -> Printf.sprintf "reconfig@%d" i

let gen_between =
  let open QCheck.Gen in
  let idx = int_bound 16 in
  frequency
    [ (1, return Quiet);
      (2, map (fun i -> Flap i) idx);
      (2, map2 (fun k i -> Fault (k, i)) (int_bound 2) idx);
      (2, map2 (fun i j -> Hijack (i, j)) idx idx);
      (1, map (fun i -> Reconfig i) idx) ]

let sec = Netsim.Time.span_sec

let apply_between build step =
  let ids = Topology.Graph.node_ids build.Topology.Build.graph in
  let nth i = List.nth ids (i mod List.length ids) in
  let speaker i = Topology.Build.speaker build (nth i) in
  match step with
  | Quiet -> Topology.Build.run_for build (sec 5.)
  | Flap i ->
      (* Down for longer than the 90 s hold time, then back up well
         before the next cut. *)
      let a = nth i in
      let b =
        Bgp.Router.node_of_addr
          (List.hd ((speaker i).Bgp.Speaker.sp_config ()).Bgp.Config.neighbors)
            .Bgp.Config.addr
      in
      ignore
        (Netsim.Churn.apply build.Topology.Build.net
           (Netsim.Churn.flap ~a ~b ~from_:(sec 0.5) ~every:(sec 200.) ~down_for:(sec 95.)
              ~times:1));
      Topology.Build.run_for build (sec 130.)
  | Fault (kind, i) ->
      Dice.Inject.apply build (inject_of kind (nth i));
      Topology.Build.run_for build (sec 10.)
  | Hijack (i, j) ->
      if nth i <> nth j then
        Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = nth i; victim = nth j });
      Topology.Build.run_for build (sec 10.)
  | Reconfig i ->
      let sp = speaker i in
      let cfg = sp.Bgp.Speaker.sp_config () in
      sp.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.hold_time = cfg.Bgp.Config.hold_time };
      Topology.Build.run_for build (sec 5.)

(* Differential across cuts: one ground truth carries its memo through
   a sequence of cuts with live churn, injected faults and config
   changes between them; every cut's verdicts equal the full sweep. *)
let carried_memo_matches_full_checking =
  QCheck.Test.make ~count:25 ~name:"checks: memo carried across cuts equals full checking"
    (QCheck.make
       ~print:(fun (c, steps) ->
         print_case c ^ " then [" ^ String.concat "; " (List.map print_between steps) ^ "]")
       QCheck.Gen.(pair gen_case (list_size (int_range 1 3) gen_between)))
    (fun (c, steps) ->
      let graph, build, node = deploy_case c in
      let gt = Dice.Checks.ground_truth_of_graph graph in
      cut_agrees gt (snapshot build ~node) ~node c.inputs
      && List.for_all
           (fun step ->
             apply_between build step;
             cut_agrees gt (snapshot build ~node) ~node c.inputs)
           steps)

(* End to end, across cuts: twin deployments (same graph and seeds, so
   the same live history) go through the same churn, faults and config
   changes.  One explorer carries its ground truth from cut to cut; the
   other starts every cut with a fresh one, whose empty memo has every
   speaker checked.  Each cut's faults and digests agree, in order. *)
let carried_explorer_equals_fresh ~sparrow_nodes () =
  let graph = random_graph ~seed:7 ~transit:2 ~stub:4 in
  let ids = Topology.Graph.node_ids graph in
  let twin () =
    let build = deploy ~sparrow_nodes graph in
    (build, make_cut build)
  in
  let (a, cut_a), (b, cut_b) = (twin (), twin ()) in
  let carried = Dice.Checks.ground_truth_of_graph graph in
  let params =
    { Dice.Explorer.default_params with
      Dice.Explorer.limits =
        { Concolic.Engine.max_inputs = 8; max_branches = 16; solver_nodes = 20_000 };
      fuzz_extra = 2 }
  in
  let fault_strings (x : Dice.Explorer.exploration) =
    List.map (Format.asprintf "%a" Dice.Fault.pp) x.Dice.Explorer.x_faults
  in
  List.iteri
    (fun k step ->
      apply_between a step;
      apply_between b step;
      let node = List.nth ids (k mod List.length ids) in
      let xa = Dice.Explorer.explore_node ~params ~build:a ~cut:cut_a ~gt:carried ~node () in
      let xb =
        Dice.Explorer.explore_node ~params ~build:b ~cut:cut_b
          ~gt:(Dice.Checks.ground_truth_of_graph graph) ~node ()
      in
      let what = Printf.sprintf "cut %d (%s)" k (print_between step) in
      check Alcotest.(list string) (what ^ ": faults") (fault_strings xb) (fault_strings xa);
      Alcotest.(check bool) (what ^ ": digests") true
        (xa.Dice.Explorer.x_digests = xb.Dice.Explorer.x_digests))
    [ Quiet; Flap 1; Fault (0, 2); Hijack (3, 1); Reconfig 4; Fault (2, 5); Quiet ]

(* A hijack injected between two cuts is flagged by the second cut's
   baseline, although the first cut recorded the hijacker's verdicts
   clean: the new config re-records it. *)
let hijack_between_cuts () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cut = make_cut build in
  let origin_faults () =
    let x = Dice.Explorer.explore_node ~build ~cut ~gt ~node:1 () in
    List.filter
      (fun (f : Dice.Fault.t) -> f.Dice.Fault.f_property = "origin-authenticity")
      x.Dice.Explorer.x_faults
  in
  check Alcotest.int "first cut: no hijack" 0 (List.length (origin_faults ()));
  Dice.Inject.apply build (Dice.Inject.Prefix_hijack { at = 4; victim = 2 });
  Topology.Build.run_for build (sec 10.);
  Alcotest.(check bool) "second cut: hijack flagged" true (origin_faults () <> [])

(* A round with no live change re-records nothing: after one
   exploration, the next cut's pristine clone reuses every speaker's
   entry, Sparrow nodes included.  An always-miss memo would still be
   correct, only as slow as a fresh sweep per cut. *)
let quiet_round_rerecords_nothing () =
  let graph = Topology.Gadget.embedded () in
  let build = deploy ~sparrow_nodes:[ 0; 2; 5; 8 ] graph in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let cut = make_cut build in
  ignore (Dice.Explorer.explore_node ~build ~cut ~gt ~node:1 ());
  Topology.Build.run_for build (sec 10.);
  let p = pristine (snapshot build ~node:3) in
  check Alcotest.(list int) "re-recorded" [] (Dice.Checks.record gt p);
  List.iter
    (fun (id, sp) ->
      Alcotest.(check bool) (Printf.sprintf "node %d reuses" id) true
        (Dice.Checks.reuses gt id sp))
    p.Snapshot.Store.sh_speakers

(* The memo must actually be hit inside a cut too: a withdrawal of
   space nobody holds changes no Loc-RIB, so every Router speaker but
   the one that received it keeps the pristine RIB and reuses its
   verdicts. *)
let untouched_router_hits () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let node = 1 in
  let clone = snapshot build ~node in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  ignore (Dice.Checks.record gt (pristine clone));
  let quiet = pristine clone in
  List.iter
    (fun (id, sp) ->
      Alcotest.(check bool)
        (Printf.sprintf "quiesced clone: node %d reuses" id)
        true (Dice.Checks.reuses gt id sp))
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
          true (Dice.Checks.reuses gt id sp))
    sh.Snapshot.Store.sh_speakers;
  check suite_t "verdicts equal full checking"
    (suite_view (full_sweep (scoped gt Dice.Checks.Per_input) sh))
    (suite_view (Dice.Checks.run_memo gt Dice.Checks.Per_input sh))

(* Sparrow's view is cached until a table changes, so a second clone of
   the same snapshot returns the RIB the first one was recorded with:
   Sparrow speakers hit like Router ones, with the same verdicts the
   full sweep gives. *)
let sparrow_hits () =
  let graph = Topology.Gadget.embedded () in
  let build = deploy ~sparrow_nodes:[ 0; 2; 5; 8 ] graph in
  let clone = snapshot build ~node:1 in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  ignore (Dice.Checks.record gt (pristine clone));
  let sh = pristine clone in
  List.iter
    (fun (id, sp) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) reuses" id sp.Bgp.Speaker.sp_impl)
        true (Dice.Checks.reuses gt id sp))
    sh.Snapshot.Store.sh_speakers;
  List.iter
    (fun scope ->
      check suite_t "verdicts equal full checking"
        (suite_view (full_sweep (scoped gt scope) sh))
        (suite_view (Dice.Checks.run_memo gt scope sh)))
    [ Dice.Checks.Baseline; Dice.Checks.Per_input ]

(* A changed Sparrow table never returns a stale view: an announcement
   and then its withdrawal each show in the next view, on a live node
   and on a clone. *)
let sparrow_view_follows_tables () =
  let graph = Topology.Gadget.embedded () in
  let build = deploy ~sparrow_nodes:[ 0; 2; 5; 8 ] graph in
  let prefix = Bgp.Prefix.of_string_exn "8.8.9.0/24" in
  let follows what (sp : Bgp.Speaker.t) =
    let peer = List.hd (sp.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors in
    let from = peer.Bgp.Config.addr in
    let held () = Bgp.Rib.adj_in_get from prefix (sp.Bgp.Speaker.sp_rib ()) <> None in
    let before = sp.Bgp.Speaker.sp_rib () in
    Alcotest.(check bool) (what ^ ": unchanged view is reused") true
      (sp.Bgp.Speaker.sp_rib () == before);
    Alcotest.(check bool) (what ^ ": not held before") false (held ());
    sp.Bgp.Speaker.sp_inject_update ~from
      { Bgp.Msg.withdrawn = [];
        attrs =
          Some
            (Bgp.Attr.make ~origin:Bgp.Attr.Igp ~next_hop:from
               ~as_path:(Bgp.As_path.prepend peer.Bgp.Config.remote_as Bgp.As_path.empty)
               ());
        nlri = [ prefix ] };
    Alcotest.(check bool) (what ^ ": announced") true (held ());
    Alcotest.(check bool) (what ^ ": selected") true
      (Bgp.Prefix.Map.mem prefix (Bgp.Speaker.loc_rib sp));
    sp.Bgp.Speaker.sp_inject_update ~from
      { Bgp.Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] };
    Alcotest.(check bool) (what ^ ": withdrawn") false (held ());
    Alcotest.(check bool) (what ^ ": deselected") false
      (Bgp.Prefix.Map.mem prefix (Bgp.Speaker.loc_rib sp))
  in
  let clone = snapshot build ~node:0 in
  let sh = pristine clone in
  follows "clone" (Snapshot.Store.speaker sh 2);
  (* The clone's changes stay with it: a second clone still starts from
     the captured tables. *)
  let again = Snapshot.Store.speaker (pristine clone) 2 in
  Alcotest.(check bool) "second clone: not held" true
    (Bgp.Rib.adj_in_get
       (List.hd (again.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors).Bgp.Config.addr
       prefix (again.Bgp.Speaker.sp_rib ())
    = None);
  follows "live" (Topology.Build.speaker build 2)

(* A clone runs the code its live node ran at the cut: spawned without
   [bugs_of], a loop-check bypass at the explored node still lets a
   looped path in, and only an explicit override removes it. *)
let clones_keep_bug_flags () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let loop_check =
    List.find
      (fun (c : Dice.Checks.checker) -> c.Dice.Checks.name = "no-own-as-in-path")
      (Dice.Checks.standard_suite (Dice.Checks.ground_truth_of_graph graph))
  in
  List.iter
    (fun sparrow_nodes ->
      let build = deploy ~sparrow_nodes graph in
      let node = 1 in
      Dice.Inject.apply build (Dice.Inject.Loop_check_bug { at = node });
      let clone = snapshot build ~node in
      let looped =
        [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 9); ("nlri_len", 24); ("path_len", 3);
          ("contains_self", 1); ("origin_as", Topology.Gao_rexford.asn_of_node 4) ]
      in
      let loop_ok sh =
        ignore (Dice.Checks.convergence ~budget:5_000 sh);
        List.for_all
          (fun (v : Dice.Checks.verdict) -> v.Dice.Checks.v_ok)
          (loop_check.Dice.Checks.run sh)
      in
      let impl = if sparrow_nodes = [] then "router" else "sparrow" in
      let sh = subject clone ~node looped in
      Alcotest.(check bool) (impl ^ ": captured flag") true
        ((Snapshot.Store.speaker sh node).Bgp.Speaker.sp_bugs ()).Bgp.Router.skip_loop_check;
      Alcotest.(check bool) (impl ^ ": looped path selected") false (loop_ok sh);
      let fixed = snapshot ~bugs_of:(fun _ -> Bgp.Router.no_bugs) build ~node in
      Alcotest.(check bool) (impl ^ ": override removes the bug") true
        (loop_ok (subject fixed ~node looped)))
    [ []; [ 1 ] ]

(* ------------------------------------------------------------------ *)
(* Deferred convergence digests                                        *)
(* ------------------------------------------------------------------ *)

(* The convergence loop as it was before digests were deferred and
   before runs stopped at a recurrence: a fingerprint of every sample,
   taken when sampled, and every run stepped to quiescence or the
   budget.  Also returns the events it stepped. *)
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

(* What a run leaves behind that a later step or check can read: the
   pending events, the Loc-RIB fingerprint and the full-state digest.
   The clock is not among them: a run that stops at a recurrence ends
   earlier in virtual time, in the state the budget run ends in. *)
let end_state (sh : Snapshot.Store.shadow) =
  ( Netsim.Engine.pending sh.Snapshot.Store.sh_engine,
    Snapshot.Store.loc_rib_fingerprint sh,
    Option.map Digest.to_hex (Snapshot.Store.digest sh) )

let end_state_t = Alcotest.(triple int int (option string))

(* Both loops over two identical clones: equal verdicts and the same
   end state. *)
let agrees ~budget make =
  let deferred = make () and eager = make () in
  let got = Dice.Checks.convergence ~budget deferred in
  let want, events = eager_convergence ~budget eager in
  check Alcotest.(list string) "verdicts" (List.map verdict_string want)
    (List.map verdict_string got);
  check end_state_t "state after" (end_state eager) (end_state deferred);
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

(* ------------------------------------------------------------------ *)
(* Stopping at a full-state recurrence                                 *)
(* ------------------------------------------------------------------ *)

type shape = Gadget | Dispute | Clean

type run_case = {
  shape : shape;
  embedded : bool;  (** the 12-node gadget instead of the 4-node one *)
  r_seed : int;
  r_mixed : bool;
  r_node : int;  (** index into the node ids *)
  r_input : (string * int) list option;  (** delivered before the run *)
  budget : int;
}

let gen_run_case =
  let open QCheck.Gen in
  let* shape = frequencyl [ (1, Gadget); (2, Dispute); (1, Clean) ] in
  let* embedded = bool in
  let* r_seed = int_bound 10_000 in
  let* r_mixed = bool in
  let* r_node = int_bound 16 in
  let* r_input = opt (gen_input (List.init 12 Fun.id)) in
  let* budget = int_range 150 6_000 in
  return { shape; embedded; r_seed; r_mixed; r_node; r_input; budget }

let print_run_case c =
  Printf.sprintf "%s embedded=%b seed=%d mixed=%b node=%d input=%s budget=%d"
    (match c.shape with Gadget -> "gadget" | Dispute -> "dispute" | Clean -> "clean")
    c.embedded c.r_seed c.r_mixed c.r_node
    (match c.r_input with
    | None -> "-"
    | Some i -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) i))
    c.budget

(* The deployment of a case and a clone maker for its cut. *)
let run_case_clone c =
  let graph =
    match c.shape with
    | Gadget | Dispute ->
        if c.embedded then Topology.Gadget.embedded () else Topology.Gadget.bad_gadget ()
    | Clean -> random_graph ~seed:c.r_seed ~transit:2 ~stub:3
  in
  let ids = Topology.Graph.node_ids graph in
  let sparrow_nodes =
    if c.r_mixed then List.filter (fun id -> (id + c.r_seed) mod 2 = 0) ids else []
  in
  let build = deploy ~sparrow_nodes graph in
  if c.shape = Dispute then begin
    Dice.Inject.apply build
      (Dice.Inject.Policy_dispute
         { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
    Topology.Build.run_for build (Netsim.Time.span_sec 5.)
  end;
  let node = List.nth ids (c.r_node mod List.length ids) in
  let clone = snapshot build ~node in
  match c.r_input with
  | None -> clone
  | Some input -> fun () -> subject clone ~node input

(* The settling loop against one that steps to the budget with the
   same Loc-RIB samples: same verdict, Loc-RIB fingerprint and full
   digest at the end. *)
let early_stop_matches_budget_run =
  QCheck.Test.make ~count:30 ~name:"checks: stopping at a recurrence equals the budget run"
    (QCheck.make ~print:print_run_case gen_run_case)
    (fun c ->
      let make = run_case_clone c in
      let early = make () and full = make () in
      let got = List.map verdict_string (Dice.Checks.convergence ~budget:c.budget early) in
      let want, _ = eager_convergence ~budget:c.budget full in
      let want = List.map verdict_string want in
      (got = want && end_state early = end_state full)
      || QCheck.Test.fail_reportf "verdicts %s vs %s" (String.concat "; " got)
           (String.concat "; " want))

(* The oscillating 12-node gadget stops long before a 30,000-event
   budget: the recurrence is found and the budget state reached within
   a few thousand events of virtual time. *)
let dispute_stops_early () =
  let make =
    run_case_clone
      { shape = Dispute; embedded = true; r_seed = 0; r_mixed = false; r_node = 1;
        r_input = None; budget = 0 }
  in
  let sh = make () in
  let us (sh : Snapshot.Store.shadow) = Netsim.Time.to_us (Netsim.Engine.now sh.Snapshot.Store.sh_engine) in
  check Alcotest.bool "oscillating" true
    (Snapshot.Store.settle ~budget:30_000 sh = Snapshot.Store.Oscillating);
  let full = make () in
  ignore (eager_convergence ~budget:30_000 full);
  check Alcotest.bool
    (Printf.sprintf "stopped early (%d us against %d us)" (us sh) (us full))
    true
    (us sh * 5 < us full);
  check end_state_t "budget state" (end_state full) (end_state sh)

let hex_digest sh = Option.map Digest.to_hex (Snapshot.Store.digest sh)

(* Two spawns of one snapshot describe the same state, until their
   in-flight envelopes differ in content; a queued timer makes a
   shadow indescribable. *)
let shadow_digest_pins () =
  let graph = random_graph ~seed:7 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let clone = snapshot build ~node:1 in
  let sh = clone () and other = clone () in
  check Alcotest.(option string) "two spawns, one state" (hex_digest sh) (hex_digest other);
  check Alcotest.bool "described" true (Option.is_some (hex_digest sh));
  let src, dst = List.hd (Netsim.Network.channels other.Snapshot.Store.sh_net) in
  Netsim.Network.send sh.Snapshot.Store.sh_net ~src ~dst "one";
  Netsim.Network.send other.Snapshot.Store.sh_net ~src ~dst "two";
  check Alcotest.bool "different envelopes in flight" false (hex_digest sh = hex_digest other);
  ignore
    (Netsim.Engine.schedule sh.Snapshot.Store.sh_engine ~after:(Netsim.Time.span_sec 1.)
       (fun () -> ()));
  check Alcotest.(option string) "a queued timer" None (hex_digest sh)

(* A speaker and its respawn from a capture describe the same state;
   one delivered UPDATE changes the description. *)
let speaker_digest_pins () =
  let graph = random_graph ~seed:7 ~transit:2 ~stub:3 in
  let ids = Topology.Graph.node_ids graph in
  let build = deploy ~sparrow_nodes:(List.filter (fun id -> id mod 2 = 0) ids) graph in
  List.iter
    (fun node ->
      let clone = snapshot build ~node in
      let sh = clone () and other = clone () in
      let sp = Snapshot.Store.speaker sh node in
      let cap = Bgp.Speaker.capture sp in
      let respawn = cap.Bgp.Speaker.cap_respawn ~net:other.Snapshot.Store.sh_net ~bugs:cap.Bgp.Speaker.cap_bugs in
      let before = sp.Bgp.Speaker.sp_digest () in
      check Alcotest.string (Printf.sprintf "%s respawn" sp.Bgp.Speaker.sp_impl)
        (Digest.to_hex before) (Digest.to_hex (respawn.Bgp.Speaker.sp_digest ()));
      let announced =
        subject (fun () -> sh) ~node
          [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", node); ("nlri_len", 24); ("path_len", 1) ]
      in
      let after = (Snapshot.Store.speaker announced node).Bgp.Speaker.sp_digest () in
      check Alcotest.bool (Printf.sprintf "%s after an UPDATE" sp.Bgp.Speaker.sp_impl)
        false (Digest.equal before after))
    [ List.nth ids 1; List.nth ids 2 ]

let suite =
  [ qtest memo_matches_full_checking;
    qtest carried_memo_matches_full_checking;
    ("checks: carried explorer equals a fresh one per cut", `Quick,
      carried_explorer_equals_fresh ~sparrow_nodes:[]);
    ("checks: mixed deployment, carried explorer equals fresh", `Quick,
      carried_explorer_equals_fresh ~sparrow_nodes:[ 0; 3; 5 ]);
    ("checks: a hijack between cuts is flagged", `Quick, hijack_between_cuts);
    ("checks: a quiet round re-records nothing", `Quick, quiet_round_rerecords_nothing);
    ("checks: untouched Router speakers reuse verdicts", `Quick, untouched_router_hits);
    ("checks: Sparrow speakers reuse verdicts", `Quick, sparrow_hits);
    ("checks: a changed Sparrow table gets a new view", `Quick,
      sparrow_view_follows_tables);
    ("checks: clones keep the live bug flags", `Quick, clones_keep_bug_flags);
    ("checks: deferred digests on clean shadows", `Quick, deferred_digest_clean);
    ("checks: deferred digests, quiesced after two samples", `Quick,
      deferred_digest_two_samples);
    ("checks: deferred digests on dispute-wheel shadows", `Quick, deferred_digest_dispute);
    qtest early_stop_matches_budget_run;
    ("checks: an oscillating gadget stops early", `Quick, dispute_stops_early);
    ("checks: shadow digests follow the flights", `Quick, shadow_digest_pins);
    ("checks: speaker digests follow the state", `Quick, speaker_digest_pins) ]
