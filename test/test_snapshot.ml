(* Checkpoints, Chandy-Lamport cuts, and shadow isolation. *)

let check = Alcotest.check

let deploy_line n =
  (* A line of n ASes under Gao-Rexford configs. *)
  let nodes =
    List.init n (fun i ->
        (i, if i = 0 then Topology.Graph.Tier1 else Topology.Graph.Transit))
  in
  let edges =
    List.init (n - 1) (fun i ->
        { Topology.Graph.a = i + 1; b = i; rel = Topology.Graph.Customer_provider })
  in
  let g = Topology.Graph.make ~nodes ~edges in
  let build = Topology.Build.deploy g in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  build

let make_cut build =
  Snapshot.Cut.create
    ~speakers:(fun id -> Topology.Build.speaker build id)
    build.Topology.Build.net

let take_result ?deadline build cut node =
  let result = ref None in
  ignore
    (Snapshot.Cut.initiate ?deadline cut ~initiator:node
       ~on_result:(fun r -> result := Some r));
  let eng = build.Topology.Build.engine in
  let rec wait n =
    match !result with
    | Some r -> r
    | None ->
        if n = 0 then Alcotest.fail "cut did not settle"
        else begin
          ignore (Netsim.Engine.step eng);
          wait (n - 1)
        end
  in
  wait 1_000_000

let take build cut node =
  match take_result build cut node with
  | Snapshot.Cut.Complete s -> s
  | Snapshot.Cut.Partial _ -> Alcotest.fail "cut unexpectedly partial"

(* Every channel of the snapshot's topology, in channel order, with the
   messages it recorded: none where the snapshot lists no record. *)
let all_channels (s : Snapshot.Cut.snapshot) =
  let tp = s.Snapshot.Cut.topology in
  List.init (Array.length tp.Netsim.Network.chan_src) (fun c ->
      let a, b = Netsim.Network.channel_ends tp c in
      ( a, b,
        match
          List.find_opt
            (fun (r : Snapshot.Cut.channel_record) ->
              r.Snapshot.Cut.ch_from = a && r.Snapshot.Cut.ch_to = b)
            s.Snapshot.Cut.channels
        with
        | Some r -> r.Snapshot.Cut.ch_messages
        | None -> [] ))

let checkpoint_captures_state () =
  let build = deploy_line 3 in
  let sp = Topology.Build.speaker build 1 in
  let cp = Snapshot.Checkpoint.take ~at:Netsim.Time.zero sp in
  let rib = sp.Bgp.Speaker.sp_rib () in
  check Alcotest.int "route count counts loc + adj-in"
    (Bgp.Rib.loc_cardinal rib + Bgp.Rib.total_adj_in rib)
    (Snapshot.Checkpoint.route_count cp);
  (* Mutating the speaker does not change the checkpoint. *)
  sp.Bgp.Speaker.sp_inject_update ~from:(Bgp.Router.addr_of_node 0)
    { Bgp.Msg.withdrawn = [ Topology.Gao_rexford.prefix_of_node 0 ]; attrs = None; nlri = [] };
  let cp2 = Snapshot.Checkpoint.take ~at:Netsim.Time.zero sp in
  Alcotest.(check bool) "checkpoint immutable" true
    (Snapshot.Checkpoint.route_count cp > Snapshot.Checkpoint.route_count cp2)

let cut_completes_with_all_nodes () =
  let build = deploy_line 4 in
  let cut = make_cut build in
  let snap = take build cut 0 in
  check Alcotest.int "all nodes checkpointed" 4 (List.length snap.Snapshot.Cut.checkpoints);
  check Alcotest.int "all directed channels closed" 6 (List.length (all_channels snap));
  check Alcotest.int "a record only where messages were recorded" 0
    (List.length snap.Snapshot.Cut.channels);
  Alcotest.(check bool) "markers bounded by channels" true
    (snap.Snapshot.Cut.control_messages <= 6);
  check Alcotest.int "controller idle" 0 (Snapshot.Cut.active cut)

let concurrent_cuts () =
  let build = deploy_line 3 in
  let cut = make_cut build in
  let done1 = ref false and done2 = ref false in
  ignore (Snapshot.Cut.initiate cut ~initiator:0 ~on_result:(fun _ -> done1 := true));
  ignore (Snapshot.Cut.initiate cut ~initiator:2 ~on_result:(fun _ -> done2 := true));
  Topology.Build.run_for build (Netsim.Time.span_sec 10.);
  Alcotest.(check bool) "both complete" true (!done1 && !done2);
  check Alcotest.int "two snapshots recorded" 2 (Snapshot.Cut.completed cut)

let cut_captures_in_flight () =
  (* Stimulate traffic, then snapshot while UPDATEs are mid-flight: the
     union of node states and channel states must contain the change. *)
  let build = deploy_line 4 in
  let cut = make_cut build in
  let sp3 = Topology.Build.speaker build 3 in
  (* Withdraw node 3's prefix: UPDATEs start propagating up the line. *)
  let cfg = sp3.Bgp.Speaker.sp_config () in
  sp3.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
  (* Snapshot immediately, while withdrawals are in flight. *)
  let snap = take build cut 0 in
  let in_flight = Snapshot.Cut.in_flight_total snap in
  (* Spawn the clone and let it quiesce: it must reach the same
     conclusion as the live system eventually does. *)
  let shadow = Snapshot.Store.spawn snap in
  Alcotest.(check bool) "shadow quiesces" true (Snapshot.Store.run_to_quiescence shadow.Snapshot.Store.sh_clone);
  assert (Topology.Build.converge build);
  let withdrawn_prefix = Topology.Gao_rexford.prefix_of_node 3 in
  List.iter
    (fun (id, shadow_speaker) ->
      let live_speaker = Topology.Build.speaker build id in
      let live_has = Bgp.Prefix_trie.mem withdrawn_prefix (Bgp.Speaker.loc_rib live_speaker) in
      let shadow_has = Bgp.Prefix_trie.mem withdrawn_prefix (Bgp.Speaker.loc_rib shadow_speaker) in
      check Alcotest.bool
        (Printf.sprintf "node %d: shadow agrees with eventual live state (in_flight=%d)" id in_flight)
        live_has shadow_has)
    shadow.Snapshot.Store.sh_speakers

let shadow_isolation () =
  let build = deploy_line 3 in
  let cut = make_cut build in
  let snap = take build cut 0 in
  let live_before = Topology.Build.loc_rib_snapshot build in
  let live_msgs = Netsim.Network.messages_sent build.Topology.Build.net in
  let shadow = Snapshot.Store.clone snap in
  (* Hammer the clone. *)
  let sp0 = Snapshot.Store.touch shadow 0 in
  sp0.Bgp.Speaker.sp_inject_update ~from:(Bgp.Router.addr_of_node 1)
    { Bgp.Msg.withdrawn = [];
      attrs =
        Some
          (Bgp.Attr.make ~origin:Bgp.Attr.Igp
             ~as_path:[ Bgp.As_path.Seq [ Topology.Gao_rexford.asn_of_node 1 ] ]
             ~next_hop:(Bgp.Router.addr_of_node 1) ());
      nlri = [ Bgp.Prefix.of_string_exn "203.0.113.0/24" ] };
  ignore (Snapshot.Store.run_to_quiescence shadow);
  (* The live system is untouched: same RIBs, no extra messages. *)
  Alcotest.(check bool) "live RIBs unchanged" true
    (Topology.Build.loc_rib_snapshot build = live_before);
  check Alcotest.int "no live messages sent" live_msgs
    (Netsim.Network.messages_sent build.Topology.Build.net);
  (* And the clone did change. *)
  Alcotest.(check bool) "clone accepted the route" true
    (Bgp.Prefix_trie.mem (Bgp.Prefix.of_string_exn "203.0.113.0/24") (Bgp.Speaker.loc_rib sp0))

let clones_are_independent () =
  let build = deploy_line 3 in
  let cut = make_cut build in
  let snap = take build cut 0 in
  let s1 = Snapshot.Store.clone snap in
  let s2 = Snapshot.Store.clone snap in
  let inject shadow prefix =
    (Snapshot.Store.touch shadow 0).Bgp.Speaker.sp_inject_update
      ~from:(Bgp.Router.addr_of_node 1)
      { Bgp.Msg.withdrawn = [];
        attrs =
          Some
            (Bgp.Attr.make ~origin:Bgp.Attr.Igp
               ~as_path:[ Bgp.As_path.Seq [ Topology.Gao_rexford.asn_of_node 1 ] ]
               ~next_hop:(Bgp.Router.addr_of_node 1) ());
        nlri = [ Bgp.Prefix.of_string_exn prefix ] }
  in
  inject s1 "203.0.113.0/24";
  inject s2 "198.51.100.0/24";
  ignore (Snapshot.Store.run_to_quiescence s1);
  ignore (Snapshot.Store.run_to_quiescence s2);
  let has shadow prefix =
    Bgp.Prefix_trie.mem (Bgp.Prefix.of_string_exn prefix)
      (Bgp.Speaker.loc_rib (Snapshot.Store.touch shadow 0))
  in
  Alcotest.(check bool) "s1 sees its input only" true
    (has s1 "203.0.113.0/24" && not (has s1 "198.51.100.0/24"));
  Alcotest.(check bool) "s2 sees its input only" true
    (has s2 "198.51.100.0/24" && not (has s2 "203.0.113.0/24"))

let checkpoint_cost_constant () =
  (* O(1) checkpointing: time to checkpoint must not scale with RIB
     size.  We assert a generous bound rather than measuring ratios. *)
  let build = deploy_line 3 in
  let sp = Topology.Build.speaker build 1 in
  (* Grow the RIB substantially. *)
  for i = 0 to 499 do
    sp.Bgp.Speaker.sp_inject_update ~from:(Bgp.Router.addr_of_node 0)
      { Bgp.Msg.withdrawn = [];
        attrs =
          Some
            (Bgp.Attr.make ~origin:Bgp.Attr.Igp
               ~as_path:[ Bgp.As_path.Seq [ Topology.Gao_rexford.asn_of_node 0 ] ]
               ~next_hop:(Bgp.Router.addr_of_node 0) ());
        nlri = [ Bgp.Prefix.make (Bgp.Ipv4.of_octets 203 (i lsr 8) (i land 255) 0) 24 ] }
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1000 do
    ignore (Snapshot.Checkpoint.take ~at:Netsim.Time.zero sp)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "1000 checkpoints of a 500-route RIB in <0.1s (took %.4fs)" dt)
    true (dt < 0.1)

(* --- cuts under churn --- *)

let cut_aborts_on_dead_peer () =
  (* Node 2 (middle of the line) dies before the markers reach it: the
     deadline must fire and name every channel the sweep lost. *)
  let build = deploy_line 4 in
  let cut = make_cut build in
  Netsim.Network.set_node_down build.Topology.Build.net 2;
  match take_result ~deadline:(Netsim.Time.span_sec 30.) build cut 0 with
  | Snapshot.Cut.Complete _ -> Alcotest.fail "cut completed across a dead node"
  | Snapshot.Cut.Partial (snap, stalled) ->
      Alcotest.(check bool) "initiator checkpointed" true
        (List.mem_assoc 0 snap.Snapshot.Cut.checkpoints);
      Alcotest.(check bool) "dead node not checkpointed" false
        (List.mem_assoc 2 snap.Snapshot.Cut.checkpoints);
      (* Markers to and through node 2 never arrived: at least the two
         channels into the dead node's neighbors stall. *)
      Alcotest.(check bool) "stalled channels named" true
        (List.mem (2, 1) stalled && List.mem (2, 3) stalled);
      check Alcotest.int "controller idle after abort" 0 (Snapshot.Cut.active cut);
      check Alcotest.int "recorded as aborted" 1 (Snapshot.Cut.aborted cut)

let partial_cut_spawns_shadow () =
  (* A partial snapshot must still be explorable: spawn it, replay, and
     let checkpointed speakers talk toward the missing (black-hole)
     nodes without raising. *)
  let build = deploy_line 4 in
  let cut = make_cut build in
  Netsim.Network.set_node_down build.Topology.Build.net 3;
  match take_result ~deadline:(Netsim.Time.span_sec 30.) build cut 0 with
  | Snapshot.Cut.Complete _ -> Alcotest.fail "cut completed across a dead node"
  | Snapshot.Cut.Partial (snap, _) ->
      let shadow = Snapshot.Store.clone snap in
      let sp0 = Snapshot.Store.touch shadow 0 in
      sp0.Bgp.Speaker.sp_inject_update ~from:(Bgp.Router.addr_of_node 1)
        { Bgp.Msg.withdrawn = [ Topology.Gao_rexford.prefix_of_node 3 ];
          attrs = None; nlri = [] };
      Alcotest.(check bool) "partial shadow quiesces" true
        (Snapshot.Store.run_to_quiescence shadow)

let cut_deadline_property =
  QCheck.Test.make ~count:30 ~name:"every cut settles by its deadline"
    QCheck.(pair (int_range 0 3) (int_range 0 4))
    (fun (initiator, victim) ->
      (* Kill an arbitrary node (possibly none, possibly the initiator's
         neighbor) mid-deployment, then initiate with a deadline: the
         cut must settle — Complete or Partial — and leave the active
         table empty. *)
      let build = deploy_line 4 in
      let cut = make_cut build in
      if victim < 4 && victim <> initiator then
        Netsim.Network.set_node_down build.Topology.Build.net victim;
      let settled = ref None in
      ignore
        (Snapshot.Cut.initiate cut ~deadline:(Netsim.Time.span_sec 20.)
           ~initiator ~on_result:(fun r -> settled := Some r));
      Topology.Build.run_for build (Netsim.Time.span_sec 60.);
      match !settled with
      | None -> false
      | Some r ->
          let ok_kind =
            match r with
            | Snapshot.Cut.Complete _ -> victim >= 4 || victim = initiator
            | Snapshot.Cut.Partial (_, stalled) -> stalled <> []
          in
          ok_kind && Snapshot.Cut.active cut = 0)

(* --- the counting cut against a rescanning one --- *)

(* What a settled cut says: Complete or Partial with its stalled
   channels, its start and end, each checkpoint's node, instant and
   state digest, each channel's recorded messages and the markers sent. *)
type cut_view = {
  v_complete : bool;
  v_stalled : (int * int) list;
  v_started : int;
  v_completed : int;
  v_checkpoints : (int * int * string) list;
  v_channels : (int * int * string list) list;
  v_markers : int;
}

let checkpoint_view node (cp : Snapshot.Checkpoint.t) =
  ( node,
    Netsim.Time.to_us cp.Snapshot.Checkpoint.taken_at,
    Digest.to_hex (cp.Snapshot.Checkpoint.image.Bgp.Speaker.cap_digest ()) )

let view_of_result r =
  let s = Snapshot.Cut.snapshot_of r in
  { v_complete = (match r with Snapshot.Cut.Complete _ -> true | Snapshot.Cut.Partial _ -> false);
    v_stalled = Snapshot.Cut.stalled_of r;
    v_started = Netsim.Time.to_us s.Snapshot.Cut.started_at;
    v_completed = Netsim.Time.to_us s.Snapshot.Cut.completed_at;
    v_checkpoints =
      List.map (fun (node, cp) -> checkpoint_view node cp) s.Snapshot.Cut.checkpoints;
    v_channels = all_channels s;
    v_markers = s.Snapshot.Cut.control_messages }

(* The marker algorithm as it was before completion was counted: after
   every marker it rescans the channels expected at initiation. *)
let rescanning_cut ?deadline net ~speakers ~initiator ~on_result =
  let eng = Netsim.Network.engine net in
  let now () = Netsim.Engine.now eng in
  let checkpoints = Hashtbl.create 16 and chans = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let expected = Netsim.Network.channels net in
  let started = now () and sent = ref 0 and active = ref true and timer = ref None in
  let topology = Netsim.Network.topology net in
  let marker = Netsim.Network.control (Netsim.Network.Marker { snapshot = 0; initiator }) in
  let settle complete stalled =
    active := false;
    Option.iter Netsim.Engine.cancel !timer;
    on_result
      { v_complete = complete;
        v_stalled = stalled;
        v_started = Netsim.Time.to_us started;
        v_completed = Netsim.Time.to_us (now ());
        v_checkpoints =
          List.sort compare
            (Hashtbl.fold (fun node cp acc -> checkpoint_view node cp :: acc) checkpoints []);
        v_channels =
          List.map
            (fun (a, b) ->
              ( a, b,
                match Hashtbl.find_opt chans (a, b) with
                | Some (`Recording r) -> List.rev !r
                | Some (`Closed m) -> m
                | None -> [] ))
            expected;
        v_markers = !sent }
  in
  let engage node ~closed_from =
    Hashtbl.replace checkpoints node (Snapshot.Checkpoint.take ~at:(now ()) (speakers node));
    List.iter
      (fun src ->
        Hashtbl.replace chans (src, node)
          (if closed_from = Some src then `Closed [] else `Recording (ref [])))
      (Netsim.Network.neighbors_in net node);
    List.iter
      (fun dst ->
        incr sent;
        Netsim.Network.send_control net (Netsim.Network.channel_number topology node dst) marker)
      (Netsim.Network.neighbors_out net node)
  in
  let check_done () =
    if !active && List.for_all (Hashtbl.mem seen) expected then settle true []
  in
  Netsim.Network.set_control_handler net (fun ~chan:_ ~self ~src _ ->
      if !active && not (Hashtbl.mem seen (src, self)) then begin
        Hashtbl.replace seen (src, self) ();
        (if not (Hashtbl.mem checkpoints self) then engage self ~closed_from:(Some src)
         else
           match Hashtbl.find_opt chans (src, self) with
           | Some (`Recording r) -> Hashtbl.replace chans (src, self) (`Closed (List.rev !r))
           | Some (`Closed _) | None -> ());
        check_done ()
      end);
  Netsim.Network.set_delivery_tap net
    (Some
       (fun ~chan:_ ~dst ~src msg ->
         if !active then
           match Hashtbl.find_opt chans (src, dst) with
           | Some (`Recording r) -> r := msg :: !r
           | Some (`Closed _) | None -> ()));
  Option.iter
    (fun d ->
      timer :=
        Some
          (Netsim.Engine.schedule eng ~after:d (fun () ->
               if !active then
                 settle false (List.filter (fun c -> not (Hashtbl.mem seen c)) expected))))
    deadline;
  engage initiator ~closed_from:None;
  check_done ()

type cut_case = {
  c_seed : int;
  c_transit : int;
  c_stub : int;
  c_mixed : bool;
  c_warmup_ms : int;  (** run before the cut: sessions and UPDATEs in flight *)
  c_withdraw : int;  (** index of a node that flaps its networks at the cut *)
  c_initiator : int;  (** index into the node ids *)
  c_victim : int option;  (** index of a node taken down first *)
  c_deadline_ms : int option;
}

let gen_cut_case =
  let open QCheck.Gen in
  let* c_seed = int_bound 10_000 in
  let* c_transit = int_range 1 3 in
  let* c_stub = int_range 2 4 in
  let* c_mixed = bool in
  let* c_warmup_ms = int_range 0 5_000 in
  let* c_withdraw = int_bound 16 in
  let* c_initiator = int_bound 16 in
  let* c_victim = frequency [ (2, return None); (1, map Option.some (int_bound 16)) ] in
  let* c_deadline_ms =
    match c_victim with
    | Some _ -> map Option.some (int_range 100 5_000)
    | None -> frequency [ (2, return None); (1, map Option.some (int_range 100 5_000)) ]
  in
  return
    { c_seed; c_transit; c_stub; c_mixed; c_warmup_ms; c_withdraw; c_initiator; c_victim;
      c_deadline_ms }

let print_cut_case c =
  let opt = function Some i -> string_of_int i | None -> "-" in
  Printf.sprintf
    "seed=%d transit=%d stub=%d mixed=%b warmup=%dms withdraw=%d initiator=%d victim=%s deadline=%sms"
    c.c_seed c.c_transit c.c_stub c.c_mixed c.c_warmup_ms c.c_withdraw c.c_initiator
    (opt c.c_victim) (opt c.c_deadline_ms)

(* Two identical deployments, each cut once from the same moment: the
   counting cut on one, the rescanning one on the other.  Neither cut
   touches the live routing, so both systems run alike throughout. *)
let counting_cut_equals_rescanning =
  QCheck.Test.make ~count:40 ~name:"cut: counting completion equals rescanning"
    (QCheck.make ~print:print_cut_case gen_cut_case)
    (fun c ->
      let graph =
        Topology.Generate.generate
          ~params:
            { Topology.Generate.default_params with
              n_tier1 = 1; n_transit = c.c_transit; n_stub = c.c_stub }
          (Netsim.Rng.create c.c_seed)
      in
      let ids = Topology.Graph.node_ids graph in
      let nth i = List.nth ids (i mod List.length ids) in
      let sparrow_nodes = if c.c_mixed then List.filter (fun id -> id mod 2 = 0) ids else [] in
      let live () =
        let build = Topology.Build.deploy ~sparrow_nodes graph in
        Topology.Build.start_all build;
        Topology.Build.run_for build (Netsim.Time.span_ms c.c_warmup_ms);
        (* Withdrawn and announced again at once: two UPDATEs in flight
           on each of the node's channels. *)
        let sp = Topology.Build.speaker build (nth c.c_withdraw) in
        let cfg = sp.Bgp.Speaker.sp_config () in
        sp.Bgp.Speaker.sp_set_config { cfg with Bgp.Config.networks = [] };
        sp.Bgp.Speaker.sp_set_config cfg;
        Option.iter
          (fun v -> Netsim.Network.set_node_down build.Topology.Build.net (nth v))
          c.c_victim;
        build
      in
      let deadline = Option.map Netsim.Time.span_ms c.c_deadline_ms in
      let initiator = nth c.c_initiator in
      let settle build result =
        let rec go n =
          match !result with
          | Some v -> v
          | None ->
              if n = 0 then QCheck.Test.fail_report "cut did not settle"
              else begin
                ignore (Netsim.Engine.step build.Topology.Build.engine);
                go (n - 1)
              end
        in
        go 1_000_000
      in
      let counted =
        let build = live () in
        let result = ref None in
        ignore
          (Snapshot.Cut.initiate ?deadline (make_cut build) ~initiator
             ~on_result:(fun r -> result := Some (view_of_result r)));
        settle build result
      in
      let rescanned =
        let build = live () in
        let result = ref None in
        rescanning_cut ?deadline build.Topology.Build.net
          ~speakers:(Topology.Build.speaker build) ~initiator
          ~on_result:(fun v -> result := Some v);
        settle build result
      in
      counted = rescanned
      || QCheck.Test.fail_reportf "counted %s, %d markers, stalled %d; rescanned %s, %d, %d"
           (if counted.v_complete then "complete" else "partial")
           counted.v_markers (List.length counted.v_stalled)
           (if rescanned.v_complete then "complete" else "partial")
           rescanned.v_markers (List.length rescanned.v_stalled))

(* One demo27 cut, pinned: the live links' timing decides when the
   last marker lands, and the channel records are what every shadow
   replays.  Cut from node 0 while the sessions come up, so UPDATEs are
   in flight. *)
let channel_records_md5 (s : Snapshot.Cut.snapshot) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (ch_from, ch_to, messages) ->
      Buffer.add_string b (Printf.sprintf "%d>%d:" ch_from ch_to);
      List.iter (fun m -> Buffer.add_string b (Printf.sprintf "%d:%s" (String.length m) m)) messages;
      Buffer.add_char b ';')
    (all_channels s);
  Digest.to_hex (Digest.string (Buffer.contents b))

let demo27_golden_cut () =
  let build = Topology.Build.deploy Topology.Demo27.graph in
  Topology.Build.start_all build;
  Topology.Build.run_for build (Netsim.Time.span_ms 20);
  let s = take build (make_cut build) 0 in
  check Alcotest.int "completed at (us)" 370_952 (Netsim.Time.to_us s.Snapshot.Cut.completed_at);
  check Alcotest.int "markers" 68 s.Snapshot.Cut.control_messages;
  check Alcotest.int "in flight" 33 (Snapshot.Cut.in_flight_total s);
  check Alcotest.string "channel records" "c1cfbb405846c121759e36b0a3c97111"
    (channel_records_md5 s)

let suite =
  [ ("checkpoint: captures state immutably", `Quick, checkpoint_captures_state);
    ("cut: completes over all nodes", `Quick, cut_completes_with_all_nodes);
    ("cut: concurrent snapshots", `Quick, concurrent_cuts);
    ("cut: consistency with in-flight messages", `Quick, cut_captures_in_flight);
    ("cut: aborts on dead peer, names stalled channels", `Quick, cut_aborts_on_dead_peer);
    ("cut: partial snapshot still spawns a shadow", `Quick, partial_cut_spawns_shadow);
    QCheck_alcotest.to_alcotest cut_deadline_property;
    QCheck_alcotest.to_alcotest counting_cut_equals_rescanning;
    ("store: shadow isolation", `Quick, shadow_isolation);
    ("store: clones are independent", `Quick, clones_are_independent);
    ("checkpoint: O(1) cost", `Quick, checkpoint_cost_constant);
    ("cut: demo27 cut pinned", `Quick, demo27_golden_cut) ]
