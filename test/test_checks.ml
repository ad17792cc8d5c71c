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

(* A cut from [node]. *)
let cut_from build ~node =
  Snapshot.Cut.snapshot_of (Dice.Explorer.take_snapshot ~build ~cut:(make_cut build) ~node ())

(* A cut from [node], as a clone maker: every call spawns a fresh
   shadow of the same snapshot. *)
let snapshot ?bugs_of build ~node =
  let snap = cut_from build ~node in
  fun () -> Snapshot.Store.spawn ?bugs_of snap

let scoped gt scope =
  List.filter
    (fun (c : Dice.Checks.checker) -> c.Dice.Checks.scope = scope)
    (Dice.Checks.standard_suite gt)

(* A shadow's clone, which the explorer and the store's own loops work
   on. *)
let cl (sh : Snapshot.Store.shadow) = sh.Snapshot.Store.sh_clone

(* The explorer's pristine clone: spawned and run to quiescence. *)
let pristine clone =
  let sh = clone () in
  ignore (Snapshot.Store.run_to_quiescence (cl sh));
  sh

(* One input's wire bytes delivered to [target] over one of its
   sessions (the first by default), as the explorer replays it. *)
let deliver_input ?(session = 0) (target : Bgp.Speaker.t) input =
  let peer = List.nth (target.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors session in
  let view = Dice.Sym_handler.view_of_speaker target ~peer:peer.Bgp.Config.addr in
  let input = ("neighbor_as", peer.Bgp.Config.remote_as) :: input in
  match
    target.Bgp.Speaker.sp_process_raw
      ~from_node:(Bgp.Router.node_of_addr peer.Bgp.Config.addr)
      (Dice.Sym_handler.concretize view input)
  with
  | () -> ()
  | exception Bgp.Router.Crash _ -> ()

(* A fresh clone with [input] delivered at [node]; the clone is not yet
   run. *)
let subject ?session clone ~node input =
  let sh = clone () in
  deliver_input ?session (Snapshot.Store.speaker sh node) input;
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

(* A clone's per-input verdicts as a replay of its cut reads them: the
   columns at the capture, with the verdicts its touched speakers
   changed. *)
let capture_view captured clone =
  List.map2
    (fun (column : Dice.Checks.column) (c, edits) ->
      let column = Array.map fst column.Dice.Checks.c_rows in
      List.iter (fun (i, v) -> column.(i) <- v) edits;
      (c, Array.to_list column))
    (Dice.Checks.columns captured)
    (Dice.Checks.changed captured clone)

(* The three per-input checkers as they were before verdicts were kept
   per prefix: each folds over the whole Loc-RIB.  [check] now renders
   the per-prefix evaluation the memo uses, so these copies are the
   independent reference for the memo differentials. *)
let ok node property =
  { Dice.Checks.v_node = node; v_property = property; v_ok = true; v_evidence = "" }

let bad node property evidence =
  { Dice.Checks.v_node = node; v_property = property; v_ok = false; v_evidence = evidence }

let verdict_of property id = function
  | [] -> ok id property
  | evidence -> bad id property (String.concat "; " evidence)

let no_martians id sp =
  verdict_of "no-martians" id
    (Bgp.Prefix_trie.fold
       (fun prefix _ acc ->
         if Bgp.Prefix.is_martian prefix then
           Printf.sprintf "martian %s selected" (Bgp.Prefix.to_string prefix) :: acc
         else acc)
       (Bgp.Speaker.loc_rib sp) [])

let no_own_as_in_path id sp =
  let own = (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn in
  verdict_of "no-own-as-in-path" id
    (Bgp.Prefix_trie.fold
       (fun prefix route acc ->
         if Bgp.As_path.contains own route.Bgp.Rib.attrs.Bgp.Attr.as_path then
           Printf.sprintf "%s selected with own AS%d in path %s"
             (Bgp.Prefix.to_string prefix) own
             (Bgp.As_path.to_string route.Bgp.Rib.attrs.Bgp.Attr.as_path)
           :: acc
         else acc)
       (Bgp.Speaker.loc_rib sp) [])

let decision_matches_spec id sp =
  let cfg = sp.Bgp.Speaker.sp_config () in
  let dcfg : Bgp.Decision.config =
    { always_compare_med = cfg.Bgp.Config.always_compare_med }
  in
  let rib = sp.Bgp.Speaker.sp_rib () in
  let local_route prefix =
    if List.exists (Bgp.Prefix.equal prefix) cfg.Bgp.Config.networks then
      Some
        { Bgp.Rib.attrs =
            Bgp.Attr.make ~origin:Bgp.Attr.Igp ~next_hop:(Bgp.Router.addr_of_node id) ();
          source = Bgp.Rib.local_source }
    else None
  in
  let prefixes =
    List.sort_uniq Bgp.Prefix.compare (Bgp.Rib.loc_prefixes rib @ cfg.Bgp.Config.networks)
  in
  verdict_of "decision-process-spec" id
    (List.filter_map
       (fun prefix ->
         let candidates =
           Bgp.Rib.candidates prefix rib
           |> List.filter (Bgp.Decision.acceptable ~local_as:cfg.Bgp.Config.asn)
         in
         let candidates =
           match local_route prefix with
           | Some r -> r :: candidates
           | None -> candidates
         in
         let reference = Bgp.Decision.best dcfg candidates in
         let actual = Bgp.Rib.loc_get prefix rib in
         match (reference, actual) with
         | None, None -> None
         | Some a, Some b when a = b -> None
         | _ ->
             Some
               (Printf.sprintf "%s: selection disagrees with the decision-process spec"
                  (Bgp.Prefix.to_string prefix)))
       prefixes)

let reference (c : Dice.Checks.checker) =
  match c.Dice.Checks.name with
  | "no-martians" -> no_martians
  | "no-own-as-in-path" -> no_own_as_in_path
  | "decision-process-spec" -> decision_matches_spec
  | _ -> c.Dice.Checks.check

(* The path the memo replaces: every checker over every speaker, the
   per-input ones by the whole-RIB reference. *)
let full_sweep checkers (sh : Snapshot.Store.shadow) =
  List.map
    (fun (c : Dice.Checks.checker) ->
      (c, List.map (fun (id, sp) -> reference c id sp) sh.Snapshot.Store.sh_speakers))
    checkers

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

(* The memo's verdicts over one shadow, the baseline from the memo
   itself and the per-input ones from the capture, against the full
   sweep, in order. *)
let agrees_with_full gt captured scope sh =
  let memoized =
    suite_view
      (match scope with
      | Dice.Checks.Baseline -> [ Dice.Checks.run_baseline gt (cl sh) ]
      | Dice.Checks.Per_input -> capture_view captured (cl sh))
  in
  let full = suite_view (full_sweep (scoped gt scope) sh) in
  let run =
    suite_view
      (List.map
         (fun (c : Dice.Checks.checker) -> (c, c.Dice.Checks.run sh))
         (scoped gt scope))
  in
  (memoized = full && run = full)
  || QCheck.Test.fail_reportf "memo and full checking disagree:@.%s@.vs@.%s"
       (String.concat "\n" (List.concat_map snd memoized))
       (String.concat "\n" (List.concat_map snd full))

(* One cut as the explorer checks it: the pristine clone recorded into
   [gt]'s memo and its baseline and per-input verdicts, then every
   input's shadow, each against the full sweep.  The explorer turns
   these lists into faults and digests by a rule the memo does not
   touch, so equal verdicts mean equal faults and digests, in order. *)
let cut_agrees gt snap ~node inputs =
  let clone () = Snapshot.Store.spawn snap in
  let p = pristine clone in
  ignore (Dice.Checks.record gt (cl p));
  let captured = Dice.Checks.captured gt snap in
  agrees_with_full gt captured Dice.Checks.Baseline p
  && agrees_with_full gt captured Dice.Checks.Per_input p
  && List.for_all
       (fun input ->
         let sh = subject clone ~node input in
         ignore (Dice.Checks.convergence ~budget:5_000 (cl sh));
         agrees_with_full gt captured Dice.Checks.Per_input sh)
       inputs

(* Differential on one cut, on healthy and faulty deployments. *)
let memo_matches_full_checking =
  QCheck.Test.make ~count:50 ~name:"checks: memo verdicts equal full checking"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let graph, build, node = deploy_case c in
      cut_agrees (Dice.Checks.ground_truth_of_graph graph) (cut_from build ~node) ~node
        c.inputs)

(* What the live deployment goes through between two cuts. *)
type between =
  | Quiet
  | Flap of int  (** a session of this node index's, down past the hold time *)
  | Fault of int * int  (** (kind, node index), as {!inject_of} *)
  | Hijack of int * int  (** (hijacker, victim) node indices *)
  | Reconfig of int  (** an equal but fresh config at this node index *)
  | Looped of int
      (** this node index's loop check turned off and a route through
          its own AS received from its first neighbour: RIBs and
          verdicts change, no config does *)

let print_between = function
  | Quiet -> "quiet"
  | Flap i -> Printf.sprintf "flap@%d" i
  | Fault (k, i) -> Printf.sprintf "fault%d@%d" k i
  | Hijack (i, j) -> Printf.sprintf "hijack@%d of %d" i j
  | Reconfig i -> Printf.sprintf "reconfig@%d" i
  | Looped i -> Printf.sprintf "looped@%d" i

let gen_between =
  let open QCheck.Gen in
  let idx = int_bound 16 in
  frequency
    [ (1, return Quiet);
      (2, map (fun i -> Flap i) idx);
      (2, map2 (fun k i -> Fault (k, i)) (int_bound 2) idx);
      (2, map2 (fun i j -> Hijack (i, j)) idx idx);
      (1, map (fun i -> Reconfig i) idx);
      (1, map (fun i -> Looped i) idx) ]

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
  | Looped i ->
      let sp = speaker i in
      let cfg = sp.Bgp.Speaker.sp_config () in
      let n = List.hd cfg.Bgp.Config.neighbors in
      sp.Bgp.Speaker.sp_set_bugs
        { (sp.Bgp.Speaker.sp_bugs ()) with Bgp.Router.skip_loop_check = true };
      sp.Bgp.Speaker.sp_inject_update ~from:n.Bgp.Config.addr
        { Bgp.Msg.withdrawn = [];
          attrs =
            Some
              (Bgp.Attr.make ~origin:Bgp.Attr.Igp
                 ~as_path:[ Bgp.As_path.Seq [ n.Bgp.Config.remote_as; cfg.Bgp.Config.asn ] ]
                 ~next_hop:n.Bgp.Config.addr ());
          nlri = [ Bgp.Prefix.of_string_exn "203.0.113.0/24" ] };
      Topology.Build.run_for build (sec 10.)

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
      cut_agrees gt (cut_from build ~node) ~node c.inputs
      && List.for_all
           (fun step ->
             apply_between build step;
             cut_agrees gt (cut_from build ~node) ~node c.inputs)
           steps)

(* End to end, across cuts: twin deployments (same graph and seeds, so
   the same live history) go through the same churn, faults and config
   changes.  One explorer carries its ground truth from cut to cut; the
   other starts every cut with a fresh one, whose empty memo has every
   speaker checked.  After each step two explorer nodes take a cut in
   turn, and each step's second node is the next step's first, so the
   carried columns are reused from one exploring node to another.  Each
   cut's faults and flattened digest stream agree, in order, and some
   cut reuses the last one's columns. *)
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
  let reused = ref 0 in
  List.iteri
    (fun k step ->
      apply_between a step;
      apply_between b step;
      List.iter
        (fun node ->
          let last = Atomic.get carried.Dice.Checks.last_captured in
          let xa = Dice.Explorer.explore_node ~params ~build:a ~cut:cut_a ~gt:carried ~node () in
          if Atomic.get carried.Dice.Checks.last_captured == last then incr reused;
          let xb =
            Dice.Explorer.explore_node ~params ~build:b ~cut:cut_b
              ~gt:(Dice.Checks.ground_truth_of_graph graph) ~node ()
          in
          let what = Printf.sprintf "cut %d (%s) from node %d" k (print_between step) node in
          check Alcotest.(list string) (what ^ ": faults") (fault_strings xb) (fault_strings xa);
          check
            Alcotest.(list string)
            (what ^ ": digests")
            (List.map (Format.asprintf "%a" Dice.Privacy.pp_digest)
               (List.concat xb.Dice.Explorer.x_digests))
            (List.map (Format.asprintf "%a" Dice.Privacy.pp_digest)
               (List.concat xa.Dice.Explorer.x_digests)))
        [ List.nth ids (k mod List.length ids); List.nth ids ((k + 1) mod List.length ids) ])
    [ Quiet; Flap 1; Fault (0, 2); Hijack (3, 1); Reconfig 4; Looped 2; Fault (2, 5); Quiet ];
  Alcotest.(check bool) "some cut reused the last cut's columns" true (!reused > 0)

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
  check Alcotest.(list int) "re-recorded" [] (Dice.Checks.record gt (cl p));
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
  let snap = cut_from build ~node in
  let clone () = Snapshot.Store.spawn snap in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  ignore (Dice.Checks.record gt (cl (pristine clone)));
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
  ignore (Dice.Checks.convergence (cl sh));
  List.iter
    (fun (id, sp) ->
      if id <> node then
        Alcotest.(check bool)
          (Printf.sprintf "untouched node %d reuses" id)
          true (Dice.Checks.reuses gt id sp))
    sh.Snapshot.Store.sh_speakers;
  check suite_t "verdicts equal full checking"
    (suite_view (full_sweep (scoped gt Dice.Checks.Per_input) sh))
    (suite_view (capture_view (Dice.Checks.captured gt snap) (cl sh)))

(* Sparrow's view changes only with its tables, and a clone starts from
   the captured one, so a second clone of the same snapshot returns the
   RIB the first one was recorded with:
   Sparrow speakers hit like Router ones, with the same verdicts the
   full sweep gives. *)
let sparrow_hits () =
  let graph = Topology.Gadget.embedded () in
  let build = deploy ~sparrow_nodes:[ 0; 2; 5; 8 ] graph in
  let snap = cut_from build ~node:1 in
  let clone () = Snapshot.Store.spawn snap in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  ignore (Dice.Checks.record gt (cl (pristine clone)));
  let sh = pristine clone in
  List.iter
    (fun (id, sp) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) reuses" id sp.Bgp.Speaker.sp_impl)
        true (Dice.Checks.reuses gt id sp))
    sh.Snapshot.Store.sh_speakers;
  check suite_t "baseline verdicts equal full checking"
    (suite_view (full_sweep (scoped gt Dice.Checks.Baseline) sh))
    (suite_view [ Dice.Checks.run_baseline gt (cl sh) ]);
  check suite_t "per-input verdicts equal full checking"
    (suite_view (full_sweep (scoped gt Dice.Checks.Per_input) sh))
    (suite_view (capture_view (Dice.Checks.captured gt snap) (cl sh)))

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
      (Bgp.Prefix_trie.mem prefix (Bgp.Speaker.loc_rib sp));
    sp.Bgp.Speaker.sp_inject_update ~from
      { Bgp.Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] };
    Alcotest.(check bool) (what ^ ": withdrawn") false (held ());
    Alcotest.(check bool) (what ^ ": deselected") false
      (Bgp.Prefix_trie.mem prefix (Bgp.Speaker.loc_rib sp))
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

(* [sh] with node [id]'s speaker reporting [rib] in place of its own,
   among its speakers and as its clone's touched speaker. *)
let with_rib (sh : Snapshot.Store.shadow) id rib =
  let sp = { (List.assoc id sh.Snapshot.Store.sh_speakers) with Bgp.Speaker.sp_rib = (fun () -> rib) } in
  let c = cl sh in
  let i = Netsim.Network.node_number c.Snapshot.Store.cl_snapshot.Snapshot.Cut.topology id in
  { sh with
    Snapshot.Store.sh_speakers =
      List.map (fun (j, s) -> if j = id then (j, sp) else (j, s)) sh.Snapshot.Store.sh_speakers;
    sh_clone =
      { c with
        Snapshot.Store.cl_touched =
          (i, sp) :: List.filter (fun (j, _) -> j <> i) c.Snapshot.Store.cl_touched } }

(* [snap] with node [id] captured at [rib]. *)
let captured_at (snap : Snapshot.Cut.snapshot) id rib =
  let at (cp : Snapshot.Checkpoint.t) =
    if cp.Snapshot.Checkpoint.node <> id then cp
    else
      { cp with
        Snapshot.Checkpoint.image = { cp.Snapshot.Checkpoint.image with Bgp.Speaker.cap_rib = rib } }
  in
  { snap with
    Snapshot.Cut.checkpoints = List.map (fun (i, cp) -> (i, at cp)) snap.Snapshot.Cut.checkpoints;
    by_number = Array.map (Option.map at) snap.Snapshot.Cut.by_number }

let verdict_at captured sh name id =
  capture_view captured (cl sh)
  |> List.find (fun ((c : Dice.Checks.checker), _) -> c.Dice.Checks.name = name)
  |> snd
  |> List.find (fun (v : Dice.Checks.verdict) -> v.Dice.Checks.v_node = id)

(* A touched speaker whose RIB differs from its capture by one Loc-RIB
   binding alone, its candidates untouched, is checked on that prefix.
   A correct speaker never changes a selection without its candidates,
   but the checker does not trust the speaker. *)
let loc_only_change_flagged () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let node = 1 in
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let snap = cut_from build ~node in
  let p = pristine (fun () -> Snapshot.Store.spawn snap) in
  ignore (Dice.Checks.record gt (cl p));
  let sp = Snapshot.Store.speaker p node in
  let own = (sp.Bgp.Speaker.sp_config ()).Bgp.Config.asn in
  let rib = sp.Bgp.Speaker.sp_rib () in
  let prefix, route =
    List.find
      (fun (_, r) -> not (Bgp.Rib.is_local r))
      (Bgp.Prefix_trie.bindings rib.Bgp.Rib.loc)
  in
  let looped =
    { route with
      Bgp.Rib.attrs =
        { route.Bgp.Rib.attrs with
          Bgp.Attr.as_path = Bgp.As_path.prepend own route.Bgp.Rib.attrs.Bgp.Attr.as_path } }
  in
  let martian = Bgp.Prefix.of_string_exn "127.0.0.0/8" in
  let captured = Dice.Checks.captured gt (captured_at snap node rib) in
  List.iter
    (fun (what, property, rib') ->
      Alcotest.(check bool) (what ^ ": candidates shared") true
        (rib'.Bgp.Rib.cands == rib.Bgp.Rib.cands);
      let sh = with_rib p node rib' in
      let v = verdict_at captured sh property node in
      Alcotest.(check bool) (what ^ ": flagged") false v.Dice.Checks.v_ok;
      check suite_t (what ^ ": verdicts equal full checking")
        (suite_view (full_sweep (scoped gt Dice.Checks.Per_input) sh))
        (suite_view (capture_view captured (cl sh))))
    [ ("own AS", "no-own-as-in-path", Bgp.Rib.loc_set prefix looped rib);
      ("martian", "no-martians", Bgp.Rib.loc_set martian route rib) ]

(* One new candidate that the spec prefers, at a node whose inverted MED
   comparison keeps the old selection: only the prefix's candidate set
   changed since the capture (taken after the first announcement), and
   the decision-process spec must fail there.  MED is
   compared across neighbour ASes ([always_compare_med]), so the
   routes from the tier-1 node's two customer sessions tie up to the
   MED. *)
let candidates_only_change_flagged () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let node = 0 in
  Dice.Inject.apply build (Dice.Inject.Inverted_med_bug { at = node });
  let live = Topology.Build.speaker build node in
  let cfg = live.Bgp.Speaker.sp_config () in
  live.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.always_compare_med = true };
  Topology.Build.run_for build (sec 10.);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let announce med =
    [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 9); ("nlri_len", 24); ("path_len", 2);
      ("med", med) ]
  in
  let snap = cut_from build ~node in
  let sh = subject ~session:0 (fun () -> Snapshot.Store.spawn snap) ~node (announce 100) in
  let sp = Snapshot.Store.speaker sh node in
  let before = sp.Bgp.Speaker.sp_rib () in
  let second = subject ~session:1 (fun () -> sh) ~node (announce 50) in
  let after = sp.Bgp.Speaker.sp_rib () in
  let prefix = Bgp.Prefix.of_string_exn "8.8.9.0/24" in
  Alcotest.(check bool) "selection kept" true
    (after.Bgp.Rib.loc == before.Bgp.Rib.loc && Bgp.Rib.loc_get prefix after <> None);
  check Alcotest.int "two candidates" 2 (List.length (Bgp.Rib.candidates prefix after));
  let captured = Dice.Checks.captured gt (captured_at snap node before) in
  Alcotest.(check bool) "config kept" true
    (sp.Bgp.Speaker.sp_config ()
    == (List.assoc node snap.Snapshot.Cut.checkpoints).Snapshot.Checkpoint.image
         .Bgp.Speaker.cap_config);
  let v = verdict_at captured second "decision-process-spec" node in
  Alcotest.(check bool) "spec violated" false v.Dice.Checks.v_ok;
  check Alcotest.string "evidence"
    "8.8.9.0/24: selection disagrees with the decision-process spec" v.Dice.Checks.v_evidence

(* Node 0 of a star of four, where a speaker's sends go nowhere. *)
let star_net () =
  Netsim.Network.create (Netsim.Engine.create ())
    (Netsim.Network.make_topology ~nodes:[ 0; 1; 2; 3 ]
       ~channels:(List.concat_map (fun i -> [ (0, i); (i, 0) ]) [ 1; 2; 3 ]))
    (fun _ ~src:_ _ -> ())

(* A peer's OPEN and KEEPALIVE, delivered by hand. *)
let greet_from (sp : Bgp.Speaker.t) i =
  let deliver msg = sp.Bgp.Speaker.sp_process_raw ~from_node:i (Bgp.Wire.encode msg) in
  deliver
    (Bgp.Msg.Open
       { version = 4; my_as = 64000 + i; hold_time = 90; bgp_id = Bgp.Router.addr_of_node i });
  deliver Bgp.Msg.keepalive

(* A Sparrow speaker at node 0 with sessions up to peers 1-3, so its
   Adj-RIB-Out follows its selection. *)
let sparrow_in_session () =
  let cfg =
    Bgp.Config.make ~asn:65100 ~router_id:(Bgp.Router.addr_of_node 0)
      ~networks:[ Bgp.Prefix.of_string_exn "10.0.0.0/24" ]
      ~neighbors:
        (List.map
           (fun i -> Bgp.Config.neighbor (Bgp.Router.addr_of_node i) ~remote_as:(64000 + i))
           [ 1; 2; 3 ])
      ()
  in
  let s = Bgp.Sparrow.create ~net:(star_net ()) ~node:0 cfg in
  let sp = Bgp.Sparrow.speaker s in
  List.iter (greet_from sp) [ 1; 2; 3 ];
  (s, sp)

type view_event =
  | Announce of int * int * int list * int  (** peer, prefix index, path, MED *)
  | Withdraw of int * int
  | Notify of int  (** the peer tears its session down *)
  | Reopen of int  (** the peer greets again *)
  | Networks of int list  (** a config that originates these prefix indices *)
  | Refresh  (** an equal but fresh config *)
  | Respawn  (** capture the speaker and go on with its respawn *)

let view_prefixes =
  Array.map Bgp.Prefix.of_string_exn
    [| "10.0.0.0/24"; "10.0.0.0/16"; "192.0.2.0/24"; "198.51.100.0/24"; "203.0.113.0/24" |]

let print_view_event = function
  | Announce (peer, i, path, med) ->
      Printf.sprintf "announce %d %d [%s] med %d" peer i
        (String.concat " " (List.map string_of_int path)) med
  | Withdraw (peer, i) -> Printf.sprintf "withdraw %d %d" peer i
  | Notify peer -> Printf.sprintf "notify %d" peer
  | Reopen peer -> Printf.sprintf "reopen %d" peer
  | Networks is -> Printf.sprintf "networks [%s]" (String.concat " " (List.map string_of_int is))
  | Refresh -> "refresh"
  | Respawn -> "respawn"

let gen_view_event =
  let open QCheck.Gen in
  let peer = int_range 1 3 and prefix = int_bound (Array.length view_prefixes - 1) in
  frequency
    [ (6,
       let* peer = peer in
       let* i = prefix in
       let* path =
         list_size (int_range 1 3) (oneofl [ 64001; 64002; 64003; 64050; 65100 ])
       in
       let* med = int_bound 2 in
       return (Announce (peer, i, (64000 + peer) :: path, med)));
      (3, map2 (fun peer i -> Withdraw (peer, i)) peer prefix);
      (1, map (fun peer -> Notify peer) peer);
      (1, map (fun peer -> Reopen peer) peer);
      (1, map (fun is -> Networks (List.sort_uniq compare is)) (list_size (int_bound 2) prefix));
      (1, return Refresh);
      (1, return Respawn) ]

(* A view's bindings, independent of how its maps were built. *)
let view_bindings (rib : Bgp.Rib.t) =
  ( Bgp.Prefix_trie.bindings rib.Bgp.Rib.loc,
    List.rev
      (Bgp.Prefix_trie.fold
         (fun p pm acc -> (p, Bgp.Ipv4.Map.bindings pm) :: acc)
         rib.Bgp.Rib.cands []),
    List.map
      (fun (a, pm) -> (a, Bgp.Prefix.Map.bindings pm))
      (Bgp.Ipv4.Map.bindings rib.Bgp.Rib.adj_out) )

(* The view Sparrow keeps equals one built from scratch after every
   event, on the live speaker and on a respawn that saw the same events
   since its capture; a withdrawal of a prefix the peer does not hold
   leaves it physically the same. *)
let sparrow_kept_view_equals_built =
  QCheck.Test.make ~count:200 ~name:"checks: a kept Sparrow view equals a built one"
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map print_view_event evs))
       QCheck.Gen.(list_size (int_range 1 15) gen_view_event))
    (fun events ->
      let s, live = sparrow_in_session () in
      let clone = ref None in
      let apply ev (sp : Bgp.Speaker.t) =
        match ev with
        | Announce (peer, i, path, med) ->
            let from = Bgp.Router.addr_of_node peer in
            sp.Bgp.Speaker.sp_inject_update ~from
              { Bgp.Msg.withdrawn = [];
                attrs =
                  Some
                    (Bgp.Attr.make ~origin:Bgp.Attr.Igp ~as_path:[ Bgp.As_path.Seq path ]
                       ~med:(Some med) ~next_hop:from ());
                nlri = [ view_prefixes.(i) ] }
        | Withdraw (peer, i) ->
            let from = Bgp.Router.addr_of_node peer and prefix = view_prefixes.(i) in
            let before = sp.Bgp.Speaker.sp_rib () in
            sp.Bgp.Speaker.sp_inject_update ~from
              { Bgp.Msg.withdrawn = [ prefix ]; attrs = None; nlri = [] };
            if Bgp.Rib.adj_in_get from prefix before = None && sp.Bgp.Speaker.sp_rib () != before
            then QCheck.Test.fail_report "withdrawing an unheld prefix replaced the view"
        | Notify peer ->
            sp.Bgp.Speaker.sp_process_raw ~from_node:peer
              (Bgp.Wire.encode
                 (Bgp.Msg.Notification { code = 6; subcode = 2; data = "" }))
        | Reopen peer -> greet_from sp peer
        | Networks is ->
            let cfg = sp.Bgp.Speaker.sp_config () in
            sp.Bgp.Speaker.sp_set_config
              { cfg with Bgp.Config.networks = List.map (Array.get view_prefixes) is }
        | Refresh ->
            let cfg = sp.Bgp.Speaker.sp_config () in
            sp.Bgp.Speaker.sp_set_config
              { cfg with Bgp.Config.hold_time = cfg.Bgp.Config.hold_time }
        | Respawn -> ()
      in
      List.for_all
        (fun ev ->
          apply ev live;
          Option.iter (apply ev) !clone;
          (if ev = Respawn then
             let from = Option.value !clone ~default:live in
             let cap = Bgp.Speaker.capture from in
             let sp =
               cap.Bgp.Speaker.cap_respawn ~net:(star_net ()) ~bugs:cap.Bgp.Speaker.cap_bugs
             in
             if sp.Bgp.Speaker.sp_rib () != from.Bgp.Speaker.sp_rib () then
               QCheck.Test.fail_report "a respawn does not start from the captured view";
             clone := Some sp);
          let built = view_bindings (Bgp.Sparrow.build_view s) in
          List.for_all
            (fun (sp : Bgp.Speaker.t) -> view_bindings (sp.Bgp.Speaker.sp_rib ()) = built)
            (live :: Option.to_list !clone))
        events)

(* One UPDATE to a Sparrow clone changes, between the pristine view and
   the next, only the prefixes it touched: an announcement of new space
   and the withdrawal of a route the peer had sent. *)
let sparrow_update_changes_only_touched () =
  let graph = Topology.Gadget.embedded () in
  let build = deploy ~sparrow_nodes:[ 0; 2; 5; 8 ] graph in
  let sh = pristine (snapshot build ~node:0) in
  let sp = Snapshot.Store.speaker sh 2 in
  let peer = List.hd (sp.Bgp.Speaker.sp_config ()).Bgp.Config.neighbors in
  let from = peer.Bgp.Config.addr in
  let before = sp.Bgp.Speaker.sp_rib () in
  let withdrawn = List.hd (Bgp.Rib.prefixes_from_peer from before) in
  let announced = Bgp.Prefix.of_string_exn "8.8.9.0/24" in
  sp.Bgp.Speaker.sp_inject_update ~from
    { Bgp.Msg.withdrawn = [ withdrawn ];
      attrs =
        Some
          (Bgp.Attr.make ~origin:Bgp.Attr.Igp ~next_hop:from
             ~as_path:(Bgp.As_path.prepend peer.Bgp.Config.remote_as Bgp.As_path.empty)
             ());
      nlri = [ announced ] };
  check Alcotest.(list string) "changed prefixes"
    (List.map Bgp.Prefix.to_string
       (List.sort Bgp.Prefix.compare [ withdrawn; announced ]))
    (List.map Bgp.Prefix.to_string
       (Bgp.Rib.changed_prefixes before (sp.Bgp.Speaker.sp_rib ())))

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
        ignore (Dice.Checks.convergence ~budget:5_000 (cl sh));
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
    Option.map Digest.to_hex (Snapshot.Store.digest (cl sh)) )

let end_state_t = Alcotest.(triple int int (option string))

(* Both loops over two identical clones: equal verdicts and the same
   end state. *)
let agrees ~budget make =
  let deferred = make () and eager = make () in
  let got = Dice.Checks.convergence ~budget (cl deferred) in
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
      let got = List.map verdict_string (Dice.Checks.convergence ~budget:c.budget (cl early)) in
      let want, _ = eager_convergence ~budget:c.budget full in
      let want = List.map verdict_string want in
      (got = want && end_state early = end_state full)
      || QCheck.Test.fail_reportf "verdicts %s vs %s" (String.concat "; " got)
           (String.concat "; " want))

(* What [settle] samples, taken from the touched speakers, against the
   full fingerprint less its value at the spawn, every few events of a
   run (gadgets, dispute wheels and clean graphs, with and without an
   input). *)
let fingerprint_since_capture_is_relative =
  QCheck.Test.make ~count:30 ~name:"checks: the relative fingerprint follows the full one"
    (QCheck.make ~print:print_run_case gen_run_case)
    (fun c ->
      let clone = run_case_clone { c with r_input = None } in
      let sh = clone () in
      let base = Snapshot.Store.loc_rib_fingerprint sh in
      (match c.r_input with
      | None -> ()
      | Some input ->
          let ids = List.map fst sh.Snapshot.Store.sh_speakers in
          ignore (subject (fun () -> sh) ~node:(List.nth ids (c.r_node mod List.length ids)) input));
      let eng = sh.Snapshot.Store.sh_engine in
      let rec go steps =
        let want = Snapshot.Store.loc_rib_fingerprint sh - base in
        let got = Snapshot.Store.fingerprint_since_capture (cl sh) in
        if got <> want then QCheck.Test.fail_reportf "after %d events: %d vs %d" steps got want
        else if steps >= c.budget || not (Netsim.Engine.step eng) then true
        else begin
          let rec more n = n = 0 || (Netsim.Engine.step eng && more (n - 1)) in
          ignore (more 36);
          go (steps + 37)
        end
      in
      go 0)

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
    (Snapshot.Store.settle ~budget:30_000 (cl sh) = Snapshot.Store.Oscillating);
  let full = make () in
  ignore (eager_convergence ~budget:30_000 full);
  check Alcotest.bool
    (Printf.sprintf "stopped early (%d us against %d us)" (us sh) (us full))
    true
    (us sh * 5 < us full);
  check end_state_t "budget state" (end_state full) (end_state sh)

let hex_digest sh = Option.map Digest.to_hex (Snapshot.Store.digest (cl sh))

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
  let src, dst = List.hd (Netsim.Network.channels (cl other).Snapshot.Store.cl_net) in
  Netsim.Network.send (cl sh).Snapshot.Store.cl_net ~src ~dst "one";
  Netsim.Network.send (cl other).Snapshot.Store.cl_net ~src ~dst "two";
  check Alcotest.bool "different envelopes in flight" false (hex_digest sh = hex_digest other);
  ignore
    (Netsim.Engine.schedule (cl sh).Snapshot.Store.cl_engine ~after:(Netsim.Time.span_sec 1.)
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
      let respawn = cap.Bgp.Speaker.cap_respawn ~net:(cl other).Snapshot.Store.cl_net ~bugs:cap.Bgp.Speaker.cap_bugs in
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

(* ------------------------------------------------------------------ *)
(* Lazy shadows against eager ones                                     *)
(* ------------------------------------------------------------------ *)

(* [Store.spawn] as it was before shadows cost what they touch: every
   channel connected up front, every speaker respawned at once, then the
   in-flight messages re-sent.  Its clone lists every node as touched. *)
let eager_spawn ?bugs_of (snap : Snapshot.Cut.snapshot) =
  let engine = Netsim.Engine.create ~seed:(0xD1CE + snap.Snapshot.Cut.snap_id) () in
  let topology = snap.Snapshot.Cut.topology in
  let channels =
    List.init (Array.length topology.Netsim.Network.chan_src) (Netsim.Network.channel_ends topology)
  in
  let net =
    Netsim.Network.create engine
      ~links:(fun () -> List.map (fun (a, b) -> (a, b, Netsim.Link.ideal)) channels)
      topology
      (fun _ ~src:_ _ -> ())
  in
  let live =
    List.map
      (fun (id, cp) ->
        ( Netsim.Network.node_number topology id,
          Snapshot.Checkpoint.respawn ?bugs:(Option.map (fun f -> f id) bugs_of) cp ~net ))
      snap.Snapshot.Cut.checkpoints
  in
  List.iter
    (fun (c : Snapshot.Cut.channel_record) ->
      List.iter
        (fun msg -> Netsim.Network.send net ~src:c.Snapshot.Cut.ch_from ~dst:c.Snapshot.Cut.ch_to msg)
        c.Snapshot.Cut.ch_messages)
    snap.Snapshot.Cut.channels;
  let clone =
    { Snapshot.Store.cl_snapshot = snap;
      cl_engine = engine;
      cl_net = net;
      cl_touched = live }
  in
  { Snapshot.Store.sh_clone = clone;
    sh_engine = engine;
    sh_speakers =
      List.map (fun (cp, sp) -> (cp.Snapshot.Checkpoint.node, sp)) (Snapshot.Store.touched clone) }

type lazy_case = {
  l_seed : int;
  l_transit : int;
  l_stub : int;
  l_mixed : bool;
  l_node : int;  (** index of the explored node, the cut's initiator *)
  l_load : int option;  (** index of a node that withdraws its networks at the cut *)
  l_victim : int option;  (** index of a node down at the cut: a partial cut *)
  l_override : bool;  (** [bugs_of] gives the explored node a loop-check bypass *)
  l_input : (string * int) list option;
}

let gen_lazy_case =
  let open QCheck.Gen in
  let* l_seed = int_bound 10_000 in
  let* l_transit = int_range 1 3 in
  let* l_stub = int_range 2 4 in
  let* l_mixed = bool in
  let* l_node = int_bound 16 in
  let* l_load = opt (int_bound 16) in
  let* l_victim = frequency [ (2, return None); (1, map Option.some (int_bound 16)) ] in
  let* l_override = frequencyl [ (3, false); (1, true) ] in
  let* l_input = opt (gen_input (List.init (1 + l_transit + l_stub) Fun.id)) in
  return { l_seed; l_transit; l_stub; l_mixed; l_node; l_load; l_victim; l_override; l_input }

let print_lazy_case c =
  let opt = function Some i -> string_of_int i | None -> "-" in
  Printf.sprintf "seed=%d transit=%d stub=%d mixed=%b node=%d load=%s victim=%s override=%b input=%s"
    c.l_seed c.l_transit c.l_stub c.l_mixed c.l_node (opt c.l_load) (opt c.l_victim)
    c.l_override
    (match c.l_input with
    | None -> "-"
    | Some i -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) i))

(* A shadow spawned lazily, one spawned eagerly and the explorer's
   clone, from one cut and given the same input, deliver the same
   messages in the same order and end alike: the digest before the
   input, the convergence verdicts, the per-input verdicts the replay
   changed, the pending events, the fingerprint since the capture and
   the digest after; the two shadows also agree on every checker over
   every speaker and on the full fingerprint, and the two lazy arms on
   the speakers they touched.  Their pristine clones leave the same memo
   behind. *)
let lazy_shadow_equals_eager =
  QCheck.Test.make ~count:40 ~name:"store: a lazy shadow equals an eager one"
    (QCheck.make ~print:print_lazy_case gen_lazy_case)
    (fun c ->
      let graph = random_graph ~seed:c.l_seed ~transit:c.l_transit ~stub:c.l_stub in
      let ids = Topology.Graph.node_ids graph in
      let nth i = List.nth ids (i mod List.length ids) in
      let sparrow_nodes =
        if c.l_mixed then List.filter (fun id -> (id + c.l_seed) mod 2 = 0) ids else []
      in
      let build = deploy ~sparrow_nodes graph in
      let node = nth c.l_node in
      Option.iter
        (fun i ->
          let sp = Topology.Build.speaker build (nth i) in
          sp.Bgp.Speaker.sp_set_config
            { (sp.Bgp.Speaker.sp_config ()) with Bgp.Config.networks = [] })
        c.l_load;
      let deadline =
        match c.l_victim with
        | Some i when nth i <> node ->
            Netsim.Network.set_node_down build.Topology.Build.net (nth i);
            Some (Netsim.Time.span_sec 5.)
        | Some _ | None -> None
      in
      let snap =
        Snapshot.Cut.snapshot_of
          (Dice.Explorer.take_snapshot ?deadline ~build ~cut:(make_cut build) ~node ())
      in
      let bugs_of =
        if c.l_override then
          Some
            (fun id ->
              if id = node then { Bgp.Router.no_bugs with Bgp.Router.skip_loop_check = true }
              else (Topology.Build.speaker build id).Bgp.Speaker.sp_bugs ())
        else None
      in
      (* The explorer's clone runs the captured bug flags: it is an arm
         only where nothing overrides them. *)
      let arms =
        [ ("eager", fun () -> let sh = eager_spawn ?bugs_of snap in (cl sh, Some sh));
          ("spawn", fun () -> let sh = Snapshot.Store.spawn ?bugs_of snap in (cl sh, Some sh)) ]
        @
        if Option.is_none bugs_of then [ ("clone", fun () -> (Snapshot.Store.clone snap, None)) ]
        else []
      in
      let given make =
        let clone, sh = make () in
        let before = Option.map Digest.to_hex (Snapshot.Store.digest clone) in
        Option.iter (deliver_input (Snapshot.Store.touch clone node)) c.l_input;
        (clone, sh, before)
      in
      let delivered make =
        let clone, _, _ = given make in
        let got = ref [] in
        Netsim.Network.set_delivery_tap clone.Snapshot.Store.cl_net
          (Some (fun ~dst ~src msg -> got := (src, dst, msg) :: !got));
        ignore (Snapshot.Store.run_to_quiescence ~max_events:5_000 clone);
        List.rev !got
      in
      let gt = Dice.Checks.ground_truth_of_graph graph in
      let captured = Dice.Checks.captured gt snap in
      (* What every arm reads alike, and what only the shadows have: the
         verdicts of every checker over every speaker, the full Loc-RIB
         fingerprint, and whether the digest is the one their speakers
         describe. *)
      let outcome make =
        let clone, sh, before = given make in
        let settled = Dice.Checks.convergence ~budget:5_000 clone in
        let edits =
          List.map
            (fun ((ch : Dice.Checks.checker), edits) ->
              ( ch.Dice.Checks.name,
                List.map (fun (i, v) -> Printf.sprintf "%d: %s" i (verdict_string v)) edits ))
            (Dice.Checks.changed captured clone)
        in
        let digest = Option.map Digest.to_hex (Snapshot.Store.digest clone) in
        let common =
          ( before,
            List.map verdict_string settled,
            edits,
            ( Netsim.Engine.pending clone.Snapshot.Store.cl_engine,
              Snapshot.Store.fingerprint_since_capture clone,
              digest ) )
        in
        (* The digest as the shadow's speakers describe the state: the
           network's and each speaker's own, in node order. *)
        let described (sh : Snapshot.Store.shadow) =
          Option.map
            (fun net ->
              Digest.to_hex
                (Digest.string
                   (String.concat ""
                      (net
                      :: List.map
                           (fun (_, (sp : Bgp.Speaker.t)) -> sp.Bgp.Speaker.sp_digest ())
                           sh.Snapshot.Store.sh_speakers))))
            (Netsim.Network.digest clone.Snapshot.Store.cl_net)
        in
        let swept =
          Option.map
            (fun sh ->
              ( List.concat_map
                  (fun (ch : Dice.Checks.checker) -> List.map verdict_string (ch.Dice.Checks.run sh))
                  (Dice.Checks.standard_suite gt),
                Snapshot.Store.loc_rib_fingerprint sh,
                described sh = digest ))
            sh
        in
        let touched = List.map (fun (cp, _) -> cp.Snapshot.Checkpoint.node) (Snapshot.Store.touched clone) in
        (common, swept, touched)
      in
      (* A pristine clone recorded into a fresh memo: the nodes recorded
         and whether the memo then holds each speaker it touched, the
         baseline verdicts, the nodes a second pristine clone re-records,
         and which of a fresh shadow's speakers the memo reuses. *)
      let probe = Snapshot.Store.spawn snap in
      let memo make =
        let gt = Dice.Checks.ground_truth_of_graph graph in
        let pristine () =
          let clone, _ = make () in
          ignore (Snapshot.Store.run_to_quiescence ~max_events:5_000 clone);
          clone
        in
        let first = pristine () in
        let recorded = Dice.Checks.record gt first in
        let holds_touched =
          List.for_all
            (fun ((cp : Snapshot.Checkpoint.t), sp) ->
              Dice.Checks.reuses gt cp.Snapshot.Checkpoint.node sp)
            (Snapshot.Store.touched first)
        in
        let _, baseline = Dice.Checks.run_baseline gt (pristine ()) in
        let again = Dice.Checks.record gt (pristine ()) in
        ( (recorded, holds_touched),
          List.map verdict_string baseline,
          again,
          List.map (fun (id, sp) -> Dice.Checks.reuses gt id sp) probe.Snapshot.Store.sh_speakers )
      in
      let results f = List.map (fun (name, make) -> (name, f make)) arms in
      let deliveries = results delivered and outcomes = results outcome in
      let memos = results memo in
      let agree what values =
        match values with
        | [] -> true
        | (first, v) :: rest ->
            List.for_all
              (fun (name, w) ->
                w = v || QCheck.Test.fail_reportf "%s: %s and %s disagree" what first name)
              rest
      in
      let pick f = List.map (fun (name, o) -> (name, f o)) in
      let shadows = List.filter_map (fun (name, (_, sh, _)) -> Option.map (fun s -> (name, s)) sh) in
      agree "deliveries" deliveries
      && agree "digest before, convergence, changed verdicts, end state"
           (pick (fun (common, _, _) -> common) outcomes)
      && agree "every checker over every speaker, full fingerprint" (shadows outcomes)
      && agree "touched set"
           (pick (fun (_, _, touched) -> touched)
              (List.filter (fun (name, _) -> name <> "eager") outcomes))
      && agree "memo" memos
      && List.for_all
           (fun (name, (_, swept, _)) ->
             match swept with
             | Some (_, _, false) ->
                 QCheck.Test.fail_reportf "%s: the digest is not its speakers'" name
             | Some (_, _, true) | None -> true)
           outcomes
      && List.for_all
           (fun (name, ((_, held), _, _, _)) ->
             held || QCheck.Test.fail_reportf "%s: the memo lost a touched speaker" name)
           memos)

(* ------------------------------------------------------------------ *)
(* Replays checked on their touched speakers against a full sweep      *)
(* ------------------------------------------------------------------ *)

let now = Netsim.Time.zero

(* One replay as the explorer reported every verdict before replays were
   checked on their touched speakers: a fresh shadow gets the bytes,
   settles, and every per-input checker's [run] and [convergence] go
   over [sh_speakers]; the exploring node's failures carry their
   evidence, every other node's verdict becomes a digest. *)
let swept_replay gt snap ~node ~peer_addr ~budget raw =
  let sh = Snapshot.Store.spawn snap in
  let target = Snapshot.Store.speaker sh node in
  let crash =
    match target.Bgp.Speaker.sp_process_raw ~from_node:(Bgp.Router.node_of_addr peer_addr) raw with
    | () -> []
    | exception Bgp.Router.Crash detail ->
        [ Dice.Fault.make ~at:now ~node ~property:"handler-crash" Dice.Fault.Programming_error
            detail ]
  in
  let conv = Dice.Checks.convergence ~budget (cl sh) in
  let groups =
    List.map
      (fun (c : Dice.Checks.checker) -> (c.Dice.Checks.fault_class, c.Dice.Checks.run sh))
      (scoped gt Dice.Checks.Per_input)
    @ [ (Dice.Fault.Policy_conflict, conv) ]
  in
  let faults, digests =
    List.fold_left
      (fun acc (cls, verdicts) ->
        List.fold_left
          (fun (faults, digests) (v : Dice.Checks.verdict) ->
            let fault evidence =
              Dice.Fault.make ~at:now ~node:v.Dice.Checks.v_node
                ~property:v.Dice.Checks.v_property cls evidence
            in
            if v.Dice.Checks.v_node = node then
              ((if v.Dice.Checks.v_ok then faults else fault v.Dice.Checks.v_evidence :: faults),
               digests)
            else
              ( (if v.Dice.Checks.v_ok then faults
                 else fault "remote check digest reported a violation" :: faults),
                Dice.Privacy.digest ~node:v.Dice.Checks.v_node ~property:v.Dice.Checks.v_property
                  ~ok:v.Dice.Checks.v_ok ~evidence:v.Dice.Checks.v_evidence
                :: digests ))
          acc verdicts)
      ([], []) groups
  in
  (crash @ List.rev faults, List.rev digests, sh)

let fault_strings faults = List.map (Format.asprintf "%a" Dice.Fault.pp) faults

(* The wire bytes of [input] over the node's [session]-th session, as
   the explorer concretizes them from the node's checkpoint. *)
let session_view snap ~node session =
  let cp = List.assoc node snap.Snapshot.Cut.checkpoints in
  let neighbors = cp.Snapshot.Checkpoint.image.Bgp.Speaker.cap_config.Bgp.Config.neighbors in
  let peer = List.nth neighbors (session mod List.length neighbors) in
  (peer, Dice.Sym_handler.view_of_capture cp.Snapshot.Checkpoint.image ~peer:peer.Bgp.Config.addr)

let input_bytes snap ~node ?(session = 0) input =
  let peer, view = session_view snap ~node session in
  ( peer.Bgp.Config.addr,
    Dice.Sym_handler.concretize view (("neighbor_as", peer.Bgp.Config.remote_as) :: input) )

let replay_faults k snap ~node input =
  let peer_addr, raw = input_bytes snap ~node input in
  fst (Dice.Explorer.replay k ~peer_addr ~now ~crash_property:"handler-crash" raw)

(* [Explorer.replay] of each input against [swept_replay]; [on_swept]
   sees each swept shadow, for the cases to show what they covered. *)
let replays_agree ?(on_swept = fun _ -> ()) gt k snap ~node ~budget inputs =
  List.for_all
    (fun (session, input) ->
      let peer_addr, raw = input_bytes snap ~node ~session input in
      let faults, digests =
        Dice.Explorer.replay k ~peer_addr ~now ~crash_property:"handler-crash" raw
      in
      let want_faults, want_digests, sh = swept_replay gt snap ~node ~peer_addr ~budget raw in
      on_swept sh;
      (faults = want_faults && digests = want_digests)
      || QCheck.Test.fail_reportf "replay of [%s]: faults@.%s@.vs swept@.%s@.digests equal: %b"
           (String.concat "," (List.map (fun (f, v) -> Printf.sprintf "%s=%d" f v) input))
           (String.concat "\n" (fault_strings faults))
           (String.concat "\n" (fault_strings want_faults))
           (digests = want_digests))
    inputs

(* A withdrawal of space nobody holds: it touches the node it reaches
   and changes nothing. *)
let no_op_input =
  [ ("withdraw", 1); ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 8); ("nlri_len", 24) ]

(* Random deployments, healthy and faulty, Router-only and mixed, cut
   right after a fault lands, so the pristine clone delivers UPDATEs in
   flight. *)
let replays_match_full_sweep =
  QCheck.Test.make ~count:100 ~name:"checks: every replay's faults and digests equal a full sweep"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let graph, build, node = deploy_case c in
      let ids = Topology.Graph.node_ids graph in
      Dice.Inject.apply build (inject_of c.seed (List.nth ids (c.seed mod List.length ids)));
      let gt = Dice.Checks.ground_truth_of_graph graph in
      let snap = cut_from build ~node in
      let params = { Dice.Explorer.default_params with Dice.Explorer.shadow_budget = 5_000 } in
      ignore (Dice.Checks.record gt (cl (pristine (fun () -> Snapshot.Store.spawn snap))));
      let k = Dice.Explorer.check_cut ~params ~gt ~node snap in
      replays_agree gt k snap ~node ~budget:5_000
        ((0, no_op_input) :: List.mapi (fun i input -> (i, input)) c.inputs))

(* The cases a replay's check must get right beyond the random ones:
   - a node whose memo entry is not its capture (the clone recorded
     before the cut's replays selected a martian there) and that the
     replay leaves untouched: it is reported at its capture;
   - a touched node whose verdict the replay changes (a looped path
     accepted past a disabled loop check), and a crashing input;
   - oscillating shadows (BAD GADGET under a dispute wheel). *)
let replay_check_cases () =
  let graph = random_graph ~seed:5 ~transit:2 ~stub:3 in
  let build = deploy graph in
  let node = 0 in
  let community = Bgp.Community.make 65000 666 in
  Dice.Inject.apply build (Dice.Inject.Loop_check_bug { at = node });
  Dice.Inject.apply build (Dice.Inject.Crash_bug { at = node; community });
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let snap = cut_from build ~node in
  let p = pristine (fun () -> Snapshot.Store.spawn snap) in
  let other = List.find (fun id -> id <> node) (Topology.Graph.node_ids graph) in
  let rib = (Snapshot.Store.speaker p other).Bgp.Speaker.sp_rib () in
  let route = snd (List.hd (Bgp.Prefix_trie.bindings rib.Bgp.Rib.loc)) in
  let recorded = with_rib p other (Bgp.Rib.loc_set (Bgp.Prefix.of_string_exn "127.0.0.0/8") route rib) in
  ignore (Dice.Checks.record gt (cl recorded));
  let entry = List.assoc other recorded.Snapshot.Store.sh_speakers in
  Alcotest.(check bool) "the memo entry is the martian RIB" true
    (Dice.Checks.reuses gt other entry);
  Alcotest.(check bool) "the memo entry fails where the capture passes" false
    (no_martians other entry).Dice.Checks.v_ok;
  let k = Dice.Explorer.check_cut ~gt ~node snap in
  let touched = ref [] in
  let on_swept (sh : Snapshot.Store.shadow) =
    touched :=
      List.map (fun ((cp : Snapshot.Checkpoint.t), _) -> cp.Snapshot.Checkpoint.node)
        (Snapshot.Store.touched (cl sh))
  in
  Alcotest.(check bool) "no-op replay equals the sweep" true
    (replays_agree ~on_swept gt k snap ~node ~budget:30_000 [ (0, no_op_input) ]);
  Alcotest.(check bool) "the recorded node is untouched" false (List.mem other !touched);
  let self_faults input =
    List.filter_map
      (fun (f : Dice.Fault.t) ->
        if f.Dice.Fault.f_node = node then Some f.Dice.Fault.f_property else None)
      (replay_faults k snap ~node input)
  in
  let looped =
    [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 9); ("nlri_len", 24); ("path_len", 3);
      ("contains_self", 1); ("origin_as", Topology.Gao_rexford.asn_of_node node) ]
  in
  Alcotest.(check bool) "looped replay equals the sweep" true
    (replays_agree gt k snap ~node ~budget:30_000 [ (0, looped) ]);
  Alcotest.(check bool) "the looped path is flagged at the node" true
    (List.mem "no-own-as-in-path" (self_faults looped));
  let crashing =
    let rec index i = function
      | c :: _ when Bgp.Community.equal c community -> i
      | _ :: rest -> index (i + 1) rest
      | [] -> Alcotest.fail "the crash community is not in the input space"
    in
    [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 10); ("nlri_len", 24); ("path_len", 2);
      ("origin_as", Topology.Gao_rexford.asn_of_node 4);
      ("community", index 1 (snd (session_view snap ~node 0)).Dice.Sym_handler.sh_universe) ]
  in
  Alcotest.(check bool) "crashing replay equals the sweep" true
    (replays_agree gt k snap ~node ~budget:30_000 [ (0, crashing) ]);
  Alcotest.(check bool) "the crash is reported" true
    (List.mem "handler-crash" (self_faults crashing));
  (* A remote verdict that a quiesced replay changes: a path through a
     node whose loop check is off reaches it, so the digests of that
     replay are not the cut's. *)
  let remote_changed =
    List.filter
      (fun remote ->
        let build = deploy graph in
        Dice.Inject.apply build (Dice.Inject.Loop_check_bug { at = remote });
        Topology.Build.run_for build (sec 10.);
        let snap = cut_from build ~node in
        ignore (Dice.Checks.record gt (cl (pristine (fun () -> Snapshot.Store.spawn snap))));
        let k = Dice.Explorer.check_cut ~gt ~node snap in
        let through =
          [ ("nlri_a", 8); ("nlri_b", 8); ("nlri_c", 11); ("nlri_len", 24); ("path_len", 2);
            ("origin_as", Topology.Gao_rexford.asn_of_node remote) ]
        in
        Alcotest.(check bool)
          (Printf.sprintf "replay through node %d equals the sweep" remote)
          true
          (replays_agree gt k snap ~node ~budget:30_000 [ (0, through) ]);
        List.exists
          (fun (f : Dice.Fault.t) ->
            f.Dice.Fault.f_node = remote && f.Dice.Fault.f_property = "no-own-as-in-path")
          (replay_faults k snap ~node through))
      (List.filter (fun id -> id <> node) (Topology.Graph.node_ids graph))
  in
  Alcotest.(check bool) "some replay changes a remote verdict" true (remote_changed <> []);
  let gadget = Topology.Gadget.bad_gadget () in
  let build = deploy gadget in
  Dice.Inject.apply build
    (Dice.Inject.Policy_dispute { cycle = Topology.Gadget.wheel; victim = Topology.Gadget.victim });
  Topology.Build.run_for build (Netsim.Time.span_sec 5.);
  let gt = Dice.Checks.ground_truth_of_graph gadget in
  let params = { Dice.Explorer.default_params with Dice.Explorer.shadow_budget = 3_000 } in
  let oscillating =
    List.filter
      (fun node ->
        let snap = cut_from build ~node in
        ignore (Dice.Checks.record gt (cl (pristine (fun () -> Snapshot.Store.spawn snap))));
        let k = Dice.Explorer.check_cut ~params ~gt ~node snap in
        Alcotest.(check bool) (Printf.sprintf "gadget node %d equals the sweep" node) true
          (replays_agree gt k snap ~node ~budget:3_000 [ (0, no_op_input) ]);
        List.exists
          (fun (f : Dice.Fault.t) ->
            f.Dice.Fault.f_detail = "routing oscillation (state revisited)")
          (replay_faults k snap ~node no_op_input))
      Topology.Gadget.wheel
  in
  Alcotest.(check bool) "some gadget replay oscillates" true (oscillating <> [])

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
    ("checks: a Loc-RIB change alone is checked", `Quick, loc_only_change_flagged);
    ("checks: a candidate change alone is checked", `Quick, candidates_only_change_flagged);
    qtest sparrow_kept_view_equals_built;
    ("checks: one UPDATE changes only the Sparrow prefixes it touched", `Quick,
      sparrow_update_changes_only_touched);
    ("checks: clones keep the live bug flags", `Quick, clones_keep_bug_flags);
    ("checks: deferred digests on clean shadows", `Quick, deferred_digest_clean);
    ("checks: deferred digests, quiesced after two samples", `Quick,
      deferred_digest_two_samples);
    ("checks: deferred digests on dispute-wheel shadows", `Quick, deferred_digest_dispute);
    qtest early_stop_matches_budget_run;
    ("checks: an oscillating gadget stops early", `Quick, dispute_stops_early);
    qtest fingerprint_since_capture_is_relative;
    ("checks: shadow digests follow the flights", `Quick, shadow_digest_pins);
    ("checks: speaker digests follow the state", `Quick, speaker_digest_pins);
    qtest lazy_shadow_equals_eager;
    qtest replays_match_full_sweep;
    ("checks: replays on a recorded, a changed, a crashing and an oscillating cut", `Quick,
      replay_check_cases) ]
