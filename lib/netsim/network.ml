type control = Marker of { snapshot : int; initiator : int }

type 'msg envelope = Data of 'msg | Control of control

type link_policy = Drop_while_down | Queue_while_down

type crash_policy = Propagate | Absorb of { restart_after : Time.span option }

type crash = {
  cr_node : int;
  cr_src : int;
  cr_at : Time.t;
  cr_exn : string;
}

(* The envelopes a channel has scheduled for delivery and not yet
   delivered, oldest first, each with its network-wide send order and
   arrival instant. *)
type 'msg flight =
  | Landed
  | Flight of {
      seq : int;
      at : Time.t;
      env : 'msg envelope;
      mutable next : 'msg flight;
    }

type 'msg channel = {
  link : Link.t;
  chan_rng : Rng.t;
  mutable last_delivery : Time.t;  (* FIFO floor for the next delivery *)
  mutable ch_up : bool;
  mutable ch_policy : link_policy;
  (* Envelopes held back while the link is down under [Queue_while_down],
     oldest first. *)
  mutable ch_held : 'msg envelope list;
  mutable ch_down_since : Time.t option;
  (* The engine event only says "deliver the next one", so the channel
     holds everything a delivery depends on. *)
  mutable ch_first : 'msg flight;
  mutable ch_last : 'msg flight;
}

type 'msg node = {
  mutable handler : src:int -> 'msg -> unit;
  mutable nd_up : bool;
  mutable nd_down_since : Time.t option;
}

(* Global (registry) accounting, created only for labeled networks so
   the live deployment's traffic is not polluted by the thousands of
   shadow clones the explorer spawns. *)
type net_metrics = {
  nm_sent : Telemetry.Metrics.counter;
  nm_delivered : Telemetry.Metrics.counter;
  nm_dropped : Telemetry.Metrics.counter;
  nm_node_downs : Telemetry.Metrics.counter;
  nm_link_downs : Telemetry.Metrics.counter;
  nm_handler_crashes : Telemetry.Metrics.counter;
  nm_node_downtime : Telemetry.Histogram.t;
  nm_link_downtime : Telemetry.Histogram.t;
}

(* Decades of microseconds: 1ms .. 1000s, apt for simulated outages. *)
let downtime_buckets = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let net_metrics label =
  let name suffix = Printf.sprintf "net.%s.%s" label suffix in
  { nm_sent = Telemetry.Metrics.counter (name "sent");
    nm_delivered = Telemetry.Metrics.counter (name "delivered");
    nm_dropped = Telemetry.Metrics.counter (name "dropped");
    nm_node_downs = Telemetry.Metrics.counter (name "node_downs");
    nm_link_downs = Telemetry.Metrics.counter (name "link_downs");
    nm_handler_crashes = Telemetry.Metrics.counter (name "handler_crashes");
    nm_node_downtime =
      Telemetry.Metrics.histogram ~buckets:downtime_buckets (name "node_downtime_us");
    nm_link_downtime =
      Telemetry.Metrics.histogram ~buckets:downtime_buckets (name "link_downtime_us") }

(* Who is connected to whom, with every node's sorted successors and
   predecessors so a neighbor query costs its degree.  A live network
   grows its own.  A frozen one is a copy that nothing writes again: it
   is shared, read-only, by every network made over it, on any domain,
   so its sorted lists are filled in when it is made. *)
type topology = {
  out_adj : (int, int list) Hashtbl.t;  (* every node, even a sink *)
  in_adj : (int, int list) Hashtbl.t;
  mutable node_list : int list option;  (* sorted; [None] until asked *)
  mutable chan_list : (int * int) list option;  (* sorted; [None] until asked *)
}

let empty_topology () =
  { out_adj = Hashtbl.create 64; in_adj = Hashtbl.create 64; node_list = None;
    chan_list = None }

let rec insert_sorted (x : int) = function
  | y :: rest when y < x -> y :: insert_sorted x rest
  | l -> x :: l

let adjacent tbl id = Option.value (Hashtbl.find_opt tbl id) ~default:[]

let node_list tp =
  match tp.node_list with
  | Some l -> l
  | None ->
      let l = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) tp.out_adj []) in
      tp.node_list <- Some l;
      l

let chan_list tp =
  match tp.chan_list with
  | Some l -> l
  | None ->
      let l =
        List.concat_map
          (fun a -> List.map (fun b -> (a, b)) (adjacent tp.out_adj a))
          (node_list tp)
      in
      tp.chan_list <- Some l;
      l

type 'msg t = {
  eng : Engine.t;
  metrics : net_metrics option;
  topo : topology;
  frozen : bool;
      (* [topo] is shared and fixed: node and channel records are made
         on first use rather than by [add_node] and [connect] *)
  first_handler : int -> src:int -> 'msg -> unit;
      (* a frozen network's node handler until [set_handler] *)
  mutable fixed : topology option;
      (* a live network's [topology], until [add_node] or [connect] *)
  node_tbl : (int, 'msg node) Hashtbl.t;
  chan_tbl : (int * int, 'msg channel) Hashtbl.t;
  net_rng : Rng.t;
  mutable control_handler : (self:int -> src:int -> control -> unit) option;
  mutable tap : (dst:int -> src:int -> 'msg -> unit) option;
  mutable transform : (src:int -> dst:int -> 'msg -> 'msg list) option;
  mutable crash_policy : crash_policy;
  mutable crash_log : crash list;  (* newest first *)
  mutable sent : int;
  mutable delivered : int;
  mutable flying : int;
  mutable dropped : int;
  mutable next_seq : int;
}

let make ?label ~topo ~frozen ~first_handler eng =
  {
    eng;
    metrics = Option.map net_metrics label;
    topo;
    frozen;
    first_handler;
    fixed = None;
    node_tbl = Hashtbl.create 64;
    chan_tbl = Hashtbl.create 256;
    net_rng = Rng.split (Engine.rng eng);
    control_handler = None;
    tap = None;
    transform = None;
    crash_policy = Propagate;
    crash_log = [];
    sent = 0;
    delivered = 0;
    flying = 0;
    dropped = 0;
    next_seq = 0;
  }

let create ?label eng =
  make ?label ~topo:(empty_topology ()) ~frozen:false
    ~first_handler:(fun _ ~src:_ _ -> ()) eng

(* The record tables start as large as a live network's.  A table
   grown from a smaller start keeps longer chains, and every delivery
   walks one with structural key comparisons: that cost more than the
   allocation it saved. *)
let over eng topo first_handler = make ~topo ~frozen:true ~first_handler eng

let engine t = t.eng

let bump t f = match t.metrics with Some m -> f m | None -> ()

let has_node t id = Hashtbl.mem t.topo.out_adj id
let has_channel t a b = List.mem b (adjacent t.topo.out_adj a)

let refuse_frozen t what =
  if t.frozen then invalid_arg (Printf.sprintf "Network.%s: frozen topology" what)

let add_node t id handler =
  refuse_frozen t "add_node";
  if has_node t id then
    invalid_arg (Printf.sprintf "Network.add_node: node %d exists" id);
  Hashtbl.add t.node_tbl id { handler; nd_up = true; nd_down_since = None };
  Hashtbl.add t.topo.out_adj id [];
  Hashtbl.add t.topo.in_adj id [];
  t.topo.node_list <- None;
  t.fixed <- None

let new_channel link rng =
  { link; chan_rng = rng; last_delivery = Time.zero; ch_up = true;
    ch_policy = Drop_while_down; ch_held = []; ch_down_since = None;
    ch_first = Landed; ch_last = Landed }

let connect t a b link =
  refuse_frozen t "connect";
  if not (has_node t a) then invalid_arg (Printf.sprintf "Network.connect: no node %d" a);
  if not (has_node t b) then invalid_arg (Printf.sprintf "Network.connect: no node %d" b);
  if Hashtbl.mem t.chan_tbl (a, b) then
    invalid_arg (Printf.sprintf "Network.connect: channel %d->%d exists" a b);
  Hashtbl.add t.chan_tbl (a, b) (new_channel link (Rng.split t.net_rng));
  Hashtbl.replace t.topo.out_adj a (insert_sorted b (adjacent t.topo.out_adj a));
  Hashtbl.replace t.topo.in_adj b (insert_sorted a (adjacent t.topo.in_adj b));
  t.topo.chan_list <- None;
  t.fixed <- None

let topology t =
  match t.fixed with
  | Some tp -> tp
  | None when t.frozen -> t.topo
  | None ->
      (* The adjacency lists are immutable, so copying the tables that
         hold them is enough. *)
      let tp =
        { out_adj = Hashtbl.copy t.topo.out_adj; in_adj = Hashtbl.copy t.topo.in_adj;
          node_list = Some (node_list t.topo); chan_list = Some (chan_list t.topo) }
      in
      t.fixed <- Some tp;
      tp

let connect_sym t a b link =
  connect t a b link;
  connect t b a link

(* Only a labeled network ([metrics] set) has events, and only while a
   sink listens: shadow clones and unobserved runs never build a detail
   string. *)
let emit_lazy t ~node ~kind f =
  if Option.is_some t.metrics && Telemetry.enabled () then
    Telemetry.trace_event ~t_us:(Time.to_us (Engine.now t.eng)) ~node ~kind
      ~detail:(f ())

let downtime_us t since =
  Time.to_us (Engine.now t.eng) - Time.to_us since

(* ------------------------------------------------------------------ *)
(* Failure state                                                       *)
(* ------------------------------------------------------------------ *)

(* A frozen network makes a record on its first use: a node's with its
   first handler, a channel's with an ideal link, which draws nothing
   from a generator and so can share the network's. *)
let first_node t id =
  if t.frozen && has_node t id then begin
    let n = { handler = t.first_handler id; nd_up = true; nd_down_since = None } in
    Hashtbl.add t.node_tbl id n;
    Some n
  end
  else None

let first_chan t a b =
  if t.frozen && has_channel t a b then begin
    let ch = new_channel Link.ideal t.net_rng in
    Hashtbl.add t.chan_tbl (a, b) ch;
    Some ch
  end
  else None

(* The lookups stay small enough to inline into the delivery path. *)
let node_opt t id =
  match Hashtbl.find_opt t.node_tbl id with Some _ as n -> n | None -> first_node t id

let chan_opt t a b =
  match Hashtbl.find_opt t.chan_tbl (a, b) with Some _ as ch -> ch | None -> first_chan t a b

let node_of t id =
  match node_opt t id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Network: no node %d" id)

let chan_of t a b =
  match chan_opt t a b with
  | Some ch -> ch
  | None -> invalid_arg (Printf.sprintf "Network: no channel %d->%d" a b)

let set_handler t id handler =
  match node_opt t id with
  | Some n -> n.handler <- handler
  | None -> invalid_arg (Printf.sprintf "Network.set_handler: no node %d" id)

let node_is_up t id = (node_of t id).nd_up
let link_is_up t a b = (chan_of t a b).ch_up

let set_node_down t id =
  let n = node_of t id in
  if n.nd_up then begin
    n.nd_up <- false;
    n.nd_down_since <- Some (Engine.now t.eng);
    bump t (fun m -> Telemetry.Metrics.incr m.nm_node_downs);
    emit_lazy t ~node:id ~kind:"churn" (fun () -> "node down")
  end

let set_node_up t id =
  let n = node_of t id in
  if not n.nd_up then begin
    n.nd_up <- true;
    (match n.nd_down_since with
    | Some since ->
        n.nd_down_since <- None;
        bump t (fun m ->
            Telemetry.Histogram.observe m.nm_node_downtime
              (float_of_int (downtime_us t since)))
    | None -> ());
    emit_lazy t ~node:id ~kind:"churn" (fun () -> "node up")
  end

let drop t ~src env =
  t.dropped <- t.dropped + 1;
  bump t (fun m -> Telemetry.Metrics.incr m.nm_dropped);
  match env with
  | Data _ -> emit_lazy t ~node:src ~kind:"drop" (fun () -> "message lost to churn")
  | Control _ -> emit_lazy t ~node:src ~kind:"drop" (fun () -> "marker lost to churn")

let deliver t ~src ~dst ch =
  let env =
    match ch.ch_first with
    | Flight f ->
        ch.ch_first <- f.next;
        if f.next == Landed then ch.ch_last <- Landed;
        f.env
    | Landed -> invalid_arg "Network: delivery on an empty channel"
  in
  t.flying <- t.flying - 1;
  let dst_node = node_of t dst in
  if not dst_node.nd_up then drop t ~src env
  else if not ch.ch_up then
    (* The link failed while the message was in flight. *)
    (match ch.ch_policy with
    | Drop_while_down -> drop t ~src env
    | Queue_while_down -> ch.ch_held <- ch.ch_held @ [ env ])
  else
    match env with
    | Control c -> (
        match t.control_handler with
        | Some f -> f ~self:dst ~src c
        | None -> ())
    | Data m -> (
        t.delivered <- t.delivered + 1;
        bump t (fun mt -> Telemetry.Metrics.incr mt.nm_delivered);
        (match t.tap with Some f -> f ~dst ~src m | None -> ());
        emit_lazy t ~node:dst ~kind:"deliver" (fun () ->
            Printf.sprintf "from %d" src);
        match t.crash_policy with
        | Propagate -> dst_node.handler ~src m
        | Absorb { restart_after } -> (
            try dst_node.handler ~src m with
            | (Stack_overflow | Out_of_memory) as e -> raise e
            | e ->
                (* The node died processing input: record it as a
                   first-class event, take the node down (its timers
                   keep firing but it is silent, like a crashed
                   process), and optionally respawn it. *)
                let detail = Printexc.to_string e in
                t.crash_log <-
                  { cr_node = dst; cr_src = src; cr_at = Engine.now t.eng;
                    cr_exn = detail }
                  :: t.crash_log;
                bump t (fun mt -> Telemetry.Metrics.incr mt.nm_handler_crashes);
                emit_lazy t ~node:dst ~kind:"crash" (fun () ->
                    Printf.sprintf "handler died on message from %d: %s" src detail);
                set_node_down t dst;
                match restart_after with
                | Some d ->
                    ignore (Engine.schedule t.eng ~after:d (fun () -> set_node_up t dst))
                | None -> ()))

let schedule_delivery t ~src ~dst ch env =
  let now = Engine.now t.eng in
  let arrival = Time.add now (Link.delay ch.link ch.chan_rng) in
  (* Clamp to the previous delivery instant to preserve FIFO order. *)
  let arrival =
    if Time.(arrival < ch.last_delivery) then ch.last_delivery else arrival
  in
  ch.last_delivery <- arrival;
  t.flying <- t.flying + 1;
  let f = Flight { seq = t.next_seq; at = arrival; env; next = Landed } in
  (match ch.ch_last with
  | Flight last -> last.next <- f
  | Landed -> ch.ch_first <- f);
  ch.ch_last <- f;
  t.next_seq <- t.next_seq + 1;
  ignore (Engine.at t.eng arrival (fun () -> deliver t ~src ~dst ch))

let transmit t ~src ~dst env =
  match chan_opt t src dst with
  | None -> invalid_arg (Printf.sprintf "Network.send: no channel %d->%d" src dst)
  | Some ch ->
      (* A down node is silent: its timers may still fire, but nothing it
         tries to send reaches the wire. *)
      if not (node_of t src).nd_up then drop t ~src env
      else if not ch.ch_up then
        (match ch.ch_policy with
        | Drop_while_down -> drop t ~src env
        | Queue_while_down ->
            (* Ride the normal delay path; [deliver] holds the envelope
               at arrival, so the held queue is in arrival order and FIFO
               survives messages already in flight when the link failed. *)
            schedule_delivery t ~src ~dst ch env)
      else schedule_delivery t ~src ~dst ch env

let set_link_down ?(policy = Drop_while_down) t a b =
  let ch = chan_of t a b in
  ch.ch_policy <- policy;
  if ch.ch_up then begin
    ch.ch_up <- false;
    ch.ch_down_since <- Some (Engine.now t.eng);
    bump t (fun m -> Telemetry.Metrics.incr m.nm_link_downs);
    emit_lazy t ~node:a ~kind:"churn" (fun () ->
        Printf.sprintf "link %d->%d down" a b)
  end

let set_link_up t a b =
  let ch = chan_of t a b in
  if not ch.ch_up then begin
    ch.ch_up <- true;
    (match ch.ch_down_since with
    | Some since ->
        ch.ch_down_since <- None;
        bump t (fun m ->
            Telemetry.Histogram.observe m.nm_link_downtime
              (float_of_int (downtime_us t since)))
    | None -> ());
    emit_lazy t ~node:a ~kind:"churn" (fun () ->
        Printf.sprintf "link %d->%d up" a b);
    (* Release held-back traffic in arrival order through the normal
       delay path; the FIFO floor keeps the order intact. *)
    let held = ch.ch_held in
    ch.ch_held <- [];
    List.iter (fun env -> schedule_delivery t ~src:a ~dst:b ch env) held
  end

let partition t xs ys =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if has_channel t a b then set_link_down t a b;
          if has_channel t b a then set_link_down t b a)
        ys)
    xs

let heal t =
  (* [set_link_up] only mutates channel records, never the table
     structure, so iterating directly is safe; a channel with no record
     yet is up. *)
  Hashtbl.iter (fun (a, b) ch -> if not ch.ch_up then set_link_up t a b) t.chan_tbl

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  bump t (fun m -> Telemetry.Metrics.incr m.nm_sent);
  emit_lazy t ~node:src ~kind:"send" (fun () ->
      Printf.sprintf "to %d" dst);
  (* The wire transform only sees application data — control markers
     belong to the snapshot algorithm and must stay intact. *)
  match t.transform with
  | None -> transmit t ~src ~dst (Data msg)
  | Some f -> List.iter (fun m -> transmit t ~src ~dst (Data m)) (f ~src ~dst msg)

let send_control t ~src ~dst c = transmit t ~src ~dst (Control c)

let set_control_handler t f = t.control_handler <- Some f
let set_delivery_tap t tap = t.tap <- tap
let set_transform t f = t.transform <- f
let set_crash_policy t p = t.crash_policy <- p
let crashes t = List.rev t.crash_log

let neighbors_out t id = adjacent t.topo.out_adj id
let neighbors_in t id = adjacent t.topo.in_adj id
let channels t = chan_list t.topo

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let in_flight t = t.flying
let messages_dropped t = t.dropped

(* Deliveries on one channel fire in send order (arrivals are clamped to
   the FIFO floor, and the engine breaks time ties by insertion), so the
   engine queue is the channels' flights merged by (arrival, send
   order).  The sort keeps that merge order and drops the absolute
   values: two moments whose queues differ only by a shift in time and
   in send count behave alike. *)
let digest t =
  let draws (l : Link.t) = l.Link.jitter > 0 || l.Link.loss > 0. in
  if
    Engine.queued t.eng <> t.flying
    || Option.is_some t.tap || Option.is_some t.transform
    || Option.is_some t.control_handler
  then None
  else
    (* A channel or node with no record yet (frozen networks) is
       described as a new one. *)
    let blank = new_channel Link.ideal t.net_rng in
    let chans =
      List.map
        (fun k -> (k, Option.value (Hashtbl.find_opt t.chan_tbl k) ~default:blank))
        (channels t)
    in
    if List.exists (fun (_, ch) -> draws ch.link) chans then None
    else begin
      let now = Time.to_us (Engine.now t.eng) in
      let rec flights_of k acc = function
        | Landed -> acc
        | Flight f -> flights_of k ((Time.to_us f.at, f.seq, k, f.env) :: acc) f.next
      in
      let flights =
        List.fold_left (fun acc (k, ch) -> flights_of k acc ch.ch_first) [] chans
        |> List.sort (fun (a, s, _, _) (b, s', _, _) ->
               let c = Int.compare a b in
               if c <> 0 then c else Int.compare s s')
        |> List.map (fun (at, _, k, env) -> (at - now, k, env))
      in
      let channels =
        List.map
          (fun (k, ch) ->
            ( k, ch.ch_up, ch.ch_policy, ch.ch_held,
              max 0 (Time.to_us ch.last_delivery - now) ))
          chans
      in
      let nodes =
        List.map
          (fun id ->
            (id, match Hashtbl.find_opt t.node_tbl id with Some n -> n.nd_up | None -> true))
          (node_list t.topo)
      in
      Some
        (Digest.string
           (Marshal.to_string
              (flights, channels, nodes, t.crash_policy)
              [ Marshal.No_sharing ]))
    end
