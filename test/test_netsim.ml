(* Unit and property tests for the discrete-event simulator. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let time_units () =
  check Alcotest.int "ms" 5_000 (Netsim.Time.to_us (Netsim.Time.of_ms 5));
  check Alcotest.int "sec" 1_500_000 (Netsim.Time.to_us (Netsim.Time.of_sec 1.5));
  check (Alcotest.float 1e-9) "roundtrip" 2.25
    (Netsim.Time.to_sec (Netsim.Time.of_sec 2.25))

let time_add_clips () =
  let t = Netsim.Time.of_us 100 in
  check Alcotest.int "negative span clips at zero" 0
    (Netsim.Time.to_us (Netsim.Time.add t (-500)));
  check Alcotest.int "diff" 70 (Netsim.Time.diff t (Netsim.Time.of_us 30))

let time_rejects_negative () =
  Alcotest.check_raises "of_us" (Invalid_argument "Time.of_us: negative") (fun () ->
      ignore (Netsim.Time.of_us (-1)))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Netsim.Rng.create 7 and b = Netsim.Rng.create 7 in
  let xs = List.init 20 (fun _ -> Netsim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Netsim.Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs ys

let rng_split_independent () =
  let root = Netsim.Rng.create 7 in
  let child = Netsim.Rng.split root in
  let xs = List.init 10 (fun _ -> Netsim.Rng.int child 1000) in
  (* Splitting again from the advanced root gives a different child. *)
  let child2 = Netsim.Rng.split root in
  let ys = List.init 10 (fun _ -> Netsim.Rng.int child2 1000) in
  Alcotest.(check bool) "children differ" true (xs <> ys)

let rng_bounds =
  QCheck.Test.make ~name:"rng: int_in stays in range" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Netsim.Rng.create seed in
      let v = Netsim.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let pqueue_orders () =
  let q = Netsim.Pqueue.create () in
  List.iter (fun p -> Netsim.Pqueue.push q ~prio:p p) [ 5; 1; 4; 1; 3 ];
  let rec drain acc =
    match Netsim.Pqueue.pop q with
    | Some (_, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 1; 3; 4; 5 ] (drain [])

let pqueue_stable () =
  let q = Netsim.Pqueue.create () in
  List.iteri (fun i name -> ignore i; Netsim.Pqueue.push q ~prio:7 name)
    [ "a"; "b"; "c"; "d" ];
  let rec drain acc =
    match Netsim.Pqueue.pop q with
    | Some (_, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  check (Alcotest.list Alcotest.string) "insertion order on ties" [ "a"; "b"; "c"; "d" ]
    (drain [])

let pqueue_model =
  QCheck.Test.make ~name:"pqueue: pop sequence equals stable sort" ~count:200
    QCheck.(list small_int)
    (fun prios ->
      let q = Netsim.Pqueue.create () in
      List.iteri (fun i p -> Netsim.Pqueue.push q ~prio:p (p, i)) prios;
      let rec drain acc =
        match Netsim.Pqueue.pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      let got = drain [] in
      let expected =
        List.stable_sort
          (fun (p1, _) (p2, _) -> Int.compare p1 p2)
          (List.mapi (fun i p -> (p, i)) prios)
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_ordering () =
  let eng = Netsim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Netsim.Engine.schedule eng ~after:300 (note "c"));
  ignore (Netsim.Engine.schedule eng ~after:100 (note "a"));
  ignore (Netsim.Engine.schedule eng ~after:200 (note "b"));
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  check Alcotest.int "clock at last event" 300 (Netsim.Time.to_us (Netsim.Engine.now eng))

let engine_cancel () =
  let eng = Netsim.Engine.create () in
  let fired = ref false in
  let timer = Netsim.Engine.schedule eng ~after:100 (fun () -> fired := true) in
  check Alcotest.int "pending before" 1 (Netsim.Engine.pending eng);
  Netsim.Engine.cancel timer;
  check Alcotest.int "pending after cancel" 0 (Netsim.Engine.pending eng);
  Netsim.Engine.run eng;
  Alcotest.(check bool) "did not fire" false !fired

let engine_until () =
  let eng = Netsim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Netsim.Engine.schedule eng ~after:1000 tick)
  in
  ignore (Netsim.Engine.schedule eng ~after:1000 tick);
  Netsim.Engine.run ~until:(Netsim.Time.of_us 5500) eng;
  check Alcotest.int "5 ticks within horizon" 5 !count;
  check Alcotest.int "clock advanced to horizon" 5500
    (Netsim.Time.to_us (Netsim.Engine.now eng))

let engine_nested_schedule () =
  let eng = Netsim.Engine.create () in
  let log = ref [] in
  ignore
    (Netsim.Engine.schedule eng ~after:10 (fun () ->
         log := "outer" :: !log;
         ignore (Netsim.Engine.schedule eng ~after:0 (fun () -> log := "inner" :: !log))));
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "inner after outer" [ "outer"; "inner" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

let link_delay_bounds () =
  let rng = Netsim.Rng.create 3 in
  let link = Netsim.Link.make ~jitter:500 ~loss:0.2 ~retransmit:1000 2000 in
  for _ = 1 to 200 do
    let d = Netsim.Link.delay link rng in
    Alcotest.(check bool) "within [lat, lat+jit+8*rtx]" true (d >= 2000 && d <= 2000 + 500 + (8 * 1000))
  done

let link_rejects_bad_loss () =
  Alcotest.check_raises "loss 1.0" (Invalid_argument "Link.make: loss must be in [0,1)")
    (fun () -> ignore (Netsim.Link.make ~loss:1.0 100))

let link_max_retries () =
  (* The retry cap bounds loss-induced delay: with max_retries = 0 a
     lossy link degenerates to latency+jitter; a custom cap raises the
     worst case proportionally. *)
  let rng = Netsim.Rng.create 5 in
  let none = Netsim.Link.make ~loss:0.9 ~retransmit:1000 ~max_retries:0 2000 in
  for _ = 1 to 100 do
    check Alcotest.int "no retries, pure latency" 2000 (Netsim.Link.delay none rng)
  done;
  let capped = Netsim.Link.make ~loss:0.9 ~retransmit:1000 ~max_retries:3 2000 in
  for _ = 1 to 200 do
    let d = Netsim.Link.delay capped rng in
    Alcotest.(check bool) "within [lat, lat+3*rtx]" true (d >= 2000 && d <= 2000 + (3 * 1000))
  done;
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Link.make: negative max_retries") (fun () ->
      ignore (Netsim.Link.make ~max_retries:(-1) 100))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_basics () =
  let s = Netsim.Stats.create () in
  Netsim.Stats.incr s "x";
  Netsim.Stats.add s "x" 4;
  check Alcotest.int "counter" 5 (Netsim.Stats.get s "x");
  check Alcotest.int "absent counter" 0 (Netsim.Stats.get s "y")

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

(* A network over [nodes] with a channel each way between every pair
   of [edges], ideal links. *)
let sym_net ?(handler = fun _ ~src:_ _ -> ()) eng nodes edges =
  Netsim.Network.create eng
    (Netsim.Network.make_topology ~nodes
       ~channels:(List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) edges))
    handler

let network_fifo =
  QCheck.Test.make ~name:"network: channels are FIFO under jitter" ~count:50
    QCheck.(pair small_int (int_bound 30))
    (fun (seed, n) ->
      let n = max 2 n in
      let eng = Netsim.Engine.create ~seed () in
      let received = ref [] in
      let net =
        Netsim.Network.create eng
          ~links:(fun () ->
            [ (0, 1, Netsim.Link.make ~jitter:(Netsim.Time.span_ms 50) (Netsim.Time.span_ms 10)) ])
          (Netsim.Network.make_topology ~nodes:[ 0; 1 ] ~channels:[ (0, 1) ])
          (fun _ ~src:_ m -> received := m :: !received)
      in
      for i = 1 to n do
        Netsim.Network.send net ~src:0 ~dst:1 (string_of_int i)
      done;
      Netsim.Engine.run eng;
      List.rev !received = List.init n (fun i -> string_of_int (i + 1)))

let network_counts () =
  let eng = Netsim.Engine.create () in
  let net = sym_net eng [ 0; 1 ] [ (0, 1) ] in
  Netsim.Network.send net ~src:0 ~dst:1 "hello";
  check Alcotest.int "in flight" 1 (Netsim.Network.in_flight net);
  Netsim.Engine.run eng;
  check Alcotest.int "delivered" 1 (Netsim.Network.messages_delivered net);
  check Alcotest.int "in flight drained" 0 (Netsim.Network.in_flight net);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "channels"
    [ (0, 1); (1, 0) ] (Netsim.Network.channels net)

(* A topology made from a node and channel list, against the fold over
   that list; and a network whose channel records are made up front,
   against one that makes them with their source node on first use:
   after the same sends, links taken down and healed, they describe the
   same state, hold the same links up and deliver the same messages in
   the same order.  A case may carry one defect, which the constructor
   must refuse. *)
type topo_case = { t_nodes : int list; t_chans : (int * int) list; t_defect : string option }

let gen_topo_case =
  let open QCheck.Gen in
  let* ids = list_size (int_range 0 10) (int_bound 9) in
  let* nodes = shuffle_l (List.sort_uniq Int.compare ids) in
  let* pairs =
    if nodes = [] then return []
    else list_size (int_range 0 40) (pair (oneofl nodes) (oneofl nodes))
  in
  let* chans = shuffle_l (List.sort_uniq compare pairs) in
  let case ?defect t_nodes t_chans = { t_nodes; t_chans; t_defect = defect } in
  let unknown = (List.fold_left max 0 nodes, 10) in
  frequency
    ((3, return (case nodes chans))
     :: (1, return (case ~defect:"no node" nodes (chans @ [ unknown ])))
     :: (match nodes with
        | id :: _ -> [ (1, return (case ~defect:"node twice" (nodes @ [ id ]) chans)) ]
        | [] -> [])
    @ (match chans with
      | c :: _ -> [ (1, return (case ~defect:"channel twice" nodes (c :: chans))) ]
      | [] -> []))

let print_topo_case c =
  Printf.sprintf "nodes %s; channels %s; %s"
    (String.concat " " (List.map string_of_int c.t_nodes))
    (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) c.t_chans))
    (Option.value c.t_defect ~default:"no defect")

let network_adjacency =
  QCheck.Test.make ~name:"network: adjacency equals the fold over channels" ~count:200
    (QCheck.pair (QCheck.make ~print:print_topo_case gen_topo_case) QCheck.small_int)
    (fun (c, seed) ->
      match Netsim.Network.make_topology ~nodes:c.t_nodes ~channels:c.t_chans with
      | exception Invalid_argument _ -> Option.is_some c.t_defect
      | topology ->
          let net links =
            let log = ref [] in
            let net =
              Netsim.Network.create ?links (Netsim.Engine.create ~seed ()) topology
                (fun dst ~src m -> log := (src, dst, m) :: !log)
            in
            (net, log)
          in
          let first_use, first_use_log = net None in
          let up_front, up_front_log =
            net (Some (fun () -> List.map (fun (a, b) -> (a, b, Netsim.Link.ideal)) c.t_chans))
          in
          let fold pick id = List.sort Int.compare (List.filter_map (pick id) c.t_chans) in
          let fold_in = fold (fun id (a, b) -> if b = id then Some a else None) in
          let fold_out = fold (fun id (a, b) -> if a = id then Some b else None) in
          let agree net =
            Netsim.Network.channels net = List.sort compare c.t_chans
            && (not (Netsim.Network.has_node net 10))
            && List.for_all
                 (fun id ->
                   Netsim.Network.has_node net id
                   && Netsim.Network.neighbors_in net id = fold_in id
                   && Netsim.Network.neighbors_out net id = fold_out id)
                 c.t_nodes
          in
          let rng = Netsim.Rng.create seed in
          let sends =
            if c.t_chans = [] then []
            else List.init 5 (fun i -> (Netsim.Rng.pick rng c.t_chans, string_of_int i))
          in
          let send net =
            List.iter (fun ((src, dst), m) -> Netsim.Network.send net ~src ~dst m) sends
          in
          let downs =
            if c.t_chans = [] then []
            else
              List.init 2 (fun _ ->
                  ( Netsim.Rng.pick rng c.t_chans,
                    Netsim.Rng.pick rng
                      [ Netsim.Network.Drop_while_down; Netsim.Network.Queue_while_down ] ))
          in
          let more =
            if c.t_chans = [] then []
            else List.init 3 (fun i -> (Netsim.Rng.pick rng c.t_chans, "after " ^ string_of_int i))
          in
          let up net = List.map (fun (a, b) -> Netsim.Network.link_is_up net a b) c.t_chans in
          (* Sends, links down, more sends: the link state of the downed
             channels, and after [heal] of every channel, then every
             delivery. *)
          let run (net, log) =
            send net;
            let sent = Netsim.Network.in_flight net = List.length sends in
            let digest = Netsim.Network.digest net in
            List.iter
              (fun ((a, b), policy) -> Netsim.Network.set_link_down ~policy net a b)
              downs;
            List.iter (fun ((src, dst), m) -> Netsim.Network.send net ~src ~dst m) more;
            let down = List.map (fun ((a, b), _) -> Netsim.Network.link_is_up net a b) downs in
            let in_flight = Netsim.Network.in_flight net in
            Netsim.Network.heal net;
            let healed = up net in
            Netsim.Engine.run (Netsim.Network.engine net);
            ( (sent, digest, in_flight, down, healed),
              List.rev !log,
              Netsim.Network.digest net )
          in
          let ((sent, _, _, down, healed), _, _) as want = run (up_front, up_front_log) in
          Option.is_none c.t_defect && agree first_use && agree up_front && sent
          && (not (List.exists Fun.id down))
          && List.for_all Fun.id healed
          && run (first_use, first_use_log) = want)

let network_tap_and_control () =
  let eng = Netsim.Engine.create () in
  let net = sym_net eng [ 0; 1 ] [ (0, 1) ] in
  let tapped = ref [] and controls = ref [] in
  Netsim.Network.set_delivery_tap net (Some (fun ~dst ~src msg -> tapped := (src, dst, msg) :: !tapped));
  Netsim.Network.set_control_handler net (fun ~self ~src c ->
      match c with
      | Netsim.Network.Marker { snapshot; _ } -> controls := (src, self, snapshot) :: !controls);
  Netsim.Network.send net ~src:0 ~dst:1 "data";
  Netsim.Network.send_control net ~src:0 ~dst:1
    (Netsim.Network.Marker { snapshot = 42; initiator = 0 });
  Netsim.Engine.run eng;
  check (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
    "tap saw the data message" [ (0, 1, "data") ] !tapped;
  check (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "control handler saw the marker" [ (0, 1, 42) ] !controls;
  check Alcotest.int "marker not counted as data" 1 (Netsim.Network.messages_delivered net)

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let churn_rig () =
  let eng = Netsim.Engine.create () in
  let received = ref [] in
  let handler id ~src:_ m = if id = 1 then received := m :: !received in
  (eng, sym_net ~handler eng [ 0; 1 ] [ (0, 1) ], received)

let node_down_drops () =
  let eng, net, received = churn_rig () in
  (* Down destination: deliveries vanish. *)
  Netsim.Network.set_node_down net 1;
  Netsim.Network.send net ~src:0 ~dst:1 "a";
  Netsim.Engine.run eng;
  check Alcotest.int "nothing delivered" 0 (Netsim.Network.messages_delivered net);
  check Alcotest.int "drop counted" 1 (Netsim.Network.messages_dropped net);
  (* Down source: sends are silenced even though its timers run. *)
  Netsim.Network.set_node_up net 1;
  Netsim.Network.set_node_down net 0;
  Netsim.Network.send net ~src:0 ~dst:1 "b";
  Netsim.Engine.run eng;
  check Alcotest.int "still nothing" 0 (Netsim.Network.messages_delivered net);
  (* Recovery restores normal delivery; nothing lost is replayed. *)
  Netsim.Network.set_node_up net 0;
  Netsim.Network.send net ~src:0 ~dst:1 "c";
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "only the post-recovery message" [ "c" ]
    (List.rev !received)

let node_down_mid_flight () =
  (* The destination fails while the message is on the wire: delivery
     consults node state at arrival time, not send time. *)
  let eng, net, _received = churn_rig () in
  Netsim.Network.send net ~src:0 ~dst:1 "doomed";
  Netsim.Network.set_node_down net 1;
  Netsim.Engine.run eng;
  check Alcotest.int "dropped at arrival" 1 (Netsim.Network.messages_dropped net);
  check Alcotest.int "in-flight accounting drained" 0 (Netsim.Network.in_flight net)

let link_down_policies () =
  let eng, net, received = churn_rig () in
  (* Drop policy: traffic on a down link is lost. *)
  Netsim.Network.set_link_down net 0 1;
  Alcotest.(check bool) "link reported down" false (Netsim.Network.link_is_up net 0 1);
  Alcotest.(check bool) "reverse direction untouched" true
    (Netsim.Network.link_is_up net 1 0);
  Netsim.Network.send net ~src:0 ~dst:1 "lost";
  Netsim.Engine.run eng;
  check Alcotest.int "dropped" 1 (Netsim.Network.messages_dropped net);
  Netsim.Network.set_link_up net 0 1;
  (* Queue policy: traffic is held and redelivered in order on recovery. *)
  Netsim.Network.set_link_down ~policy:Netsim.Network.Queue_while_down net 0 1;
  List.iter (fun m -> Netsim.Network.send net ~src:0 ~dst:1 m) [ "1"; "2"; "3" ];
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "held while down" [] (List.rev !received);
  Netsim.Network.set_link_up net 0 1;
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "flushed in FIFO order" [ "1"; "2"; "3" ]
    (List.rev !received)

let queue_policy_preserves_fifo_with_in_flight () =
  (* A message already in flight when the link fails is queued at its
     arrival instant; messages sent while down queue behind it; the
     flush keeps the original order. *)
  let eng, net, received = churn_rig () in
  Netsim.Network.send net ~src:0 ~dst:1 "a";
  Netsim.Network.set_link_down ~policy:Netsim.Network.Queue_while_down net 0 1;
  Netsim.Network.send net ~src:0 ~dst:1 "b";
  Netsim.Network.send net ~src:0 ~dst:1 "c";
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "all held" [] (List.rev !received);
  Netsim.Network.set_link_up net 0 1;
  Netsim.Engine.run eng;
  check (Alcotest.list Alcotest.string) "order preserved across the outage"
    [ "a"; "b"; "c" ] (List.rev !received);
  check Alcotest.int "nothing dropped" 0 (Netsim.Network.messages_dropped net)

let partition_and_heal () =
  let eng = Netsim.Engine.create () in
  let got = ref [] in
  let net =
    sym_net eng [ 0; 1; 2; 3 ] [ (0, 1); (1, 2); (2, 3) ]
      ~handler:(fun id ~src m -> got := (src, id, m) :: !got)
  in
  Netsim.Network.partition net [ 0; 1 ] [ 2; 3 ];
  (* Intra-side channel unaffected, cross-side channels cut both ways. *)
  Alcotest.(check bool) "0->1 up" true (Netsim.Network.link_is_up net 0 1);
  Alcotest.(check bool) "1->2 down" false (Netsim.Network.link_is_up net 1 2);
  Alcotest.(check bool) "2->1 down" false (Netsim.Network.link_is_up net 2 1);
  Netsim.Network.send net ~src:1 ~dst:2 "cross";
  Netsim.Network.send net ~src:0 ~dst:1 "intra";
  Netsim.Engine.run eng;
  check Alcotest.int "cross-partition message dropped" 1
    (Netsim.Network.messages_dropped net);
  check Alcotest.int "intra-side message delivered" 1
    (Netsim.Network.messages_delivered net);
  Netsim.Network.heal net;
  Alcotest.(check bool) "healed" true (Netsim.Network.link_is_up net 1 2);
  Netsim.Network.send net ~src:1 ~dst:2 "after";
  Netsim.Engine.run eng;
  check Alcotest.int "delivered after heal" 2 (Netsim.Network.messages_delivered net)

let churn_schedule_timing () =
  let eng = Netsim.Engine.create () in
  let net = sym_net eng [ 0; 1 ] [ (0, 1) ] in
  let schedule =
    Netsim.Churn.crash ~node:1 ~at:(Netsim.Time.span_ms 10)
      ~restore_after:(Netsim.Time.span_ms 10) ()
    @ Netsim.Churn.flap ~a:0 ~b:1 ~from_:(Netsim.Time.span_ms 40)
        ~every:(Netsim.Time.span_ms 20) ~down_for:(Netsim.Time.span_ms 5) ~times:2
  in
  check Alcotest.int "one crash" 1 (Netsim.Churn.node_crashes schedule);
  check Alcotest.int "two flaps" 2 (Netsim.Churn.link_downs schedule);
  ignore (Netsim.Churn.apply net schedule);
  let up_at ms =
    Netsim.Engine.run ~until:(Netsim.Time.of_ms ms) eng;
    (Netsim.Network.node_is_up net 1, Netsim.Network.link_is_up net 0 1)
  in
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=5ms: healthy" (true, true) (up_at 5);
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=15ms: node down" (false, true) (up_at 15);
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=25ms: node restored" (true, true) (up_at 25);
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=42ms: link flapped down" (true, false) (up_at 42);
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=47ms: link back" (true, true) (up_at 47);
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=62ms: second flap" (true, false) (up_at 62);
  check (Alcotest.pair Alcotest.bool Alcotest.bool) "t=70ms: stable" (true, true) (up_at 70);
  (* Symmetric application. *)
  Netsim.Engine.run ~until:(Netsim.Time.of_ms 62) eng;
  Alcotest.(check bool) "flap was symmetric" true
    (Netsim.Network.link_is_up net 1 0)

let churn_random_deterministic () =
  let mk () =
    Netsim.Churn.random
      ~rng:(Netsim.Rng.create 99)
      ~nodes:[ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
      ~links:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
      ~start:0
      ~duration:(Netsim.Time.span_sec 10.)
      ~node_fraction:0.3 ~link_fraction:0.4 ()
  in
  let s1 = mk () and s2 = mk () in
  Alcotest.(check bool) "same seed, same schedule" true (s1 = s2);
  check Alcotest.int "30% of 10 nodes crash" 3 (Netsim.Churn.node_crashes s1);
  check Alcotest.int "2 links x 2 flaps" 4 (Netsim.Churn.link_downs s1)

let suite =
  [ ("time: units", `Quick, time_units);
    ("time: add clips, diff", `Quick, time_add_clips);
    ("time: rejects negative", `Quick, time_rejects_negative);
    ("rng: deterministic", `Quick, rng_deterministic);
    ("rng: split independence", `Quick, rng_split_independent);
    qtest rng_bounds;
    ("pqueue: orders by priority", `Quick, pqueue_orders);
    ("pqueue: stable on ties", `Quick, pqueue_stable);
    qtest pqueue_model;
    ("engine: time ordering", `Quick, engine_ordering);
    ("engine: cancel", `Quick, engine_cancel);
    ("engine: bounded run", `Quick, engine_until);
    ("engine: nested scheduling", `Quick, engine_nested_schedule);
    ("link: delay bounds", `Quick, link_delay_bounds);
    ("link: rejects loss >= 1", `Quick, link_rejects_bad_loss);
    ("link: max_retries cap", `Quick, link_max_retries);
    ("stats: counters", `Quick, stats_basics);
    qtest network_fifo;
    ("network: counters and channels", `Quick, network_counts);
    qtest network_adjacency;
    ("network: tap and control plane", `Quick, network_tap_and_control);
    ("churn: node down drops and silences", `Quick, node_down_drops);
    ("churn: node fails mid-flight", `Quick, node_down_mid_flight);
    ("churn: link drop and queue policies", `Quick, link_down_policies);
    ("churn: queue policy keeps FIFO", `Quick, queue_policy_preserves_fifo_with_in_flight);
    ("churn: partition and heal", `Quick, partition_and_heal);
    ("churn: schedule fires on time", `Quick, churn_schedule_timing);
    ("churn: random schedule deterministic", `Quick, churn_random_deterministic) ]
