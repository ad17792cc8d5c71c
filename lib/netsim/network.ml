type control = Marker of { snapshot : int; initiator : int }

type 'msg envelope = Data of 'msg | Control of control

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
  mutable ch_down_since : Time.t option;
  (* The engine event only says "deliver the next one", so the channel
     holds everything a delivery depends on. *)
  mutable ch_first : 'msg flight;
  mutable ch_last : 'msg flight;
  deliver : unit -> unit;  (* every engine event of the channel runs it *)
}

(* A node's record holds its out-channels' records, [out.(k)] for
   channel [out_start.(i) + k], each made on first use like the node's
   own. *)
type 'msg node = {
  mutable handler : src:int -> 'msg -> unit;
  mutable nd_up : bool;
  mutable nd_down_since : Time.t option;
  out : 'msg channel option array;
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

(* Who is connected to whom, fixed before any network is made over it
   and never written again, so the live network and every shadow share
   one.  Nodes are numbered by ascending id and channels by ascending
   (source, destination), so a node's out-channels are consecutive. *)
type topology = {
  ids : int array;
  out_start : int array;
  chan_src : int array;
  chan_dst : int array;
}

(* The first [i] in [lo, hi) with [a.(i) >= x], or [hi]; [a] ascends
   there. *)
let rec lower_bound (a : int array) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < x then lower_bound a x (mid + 1) hi else lower_bound a x lo mid

let index ids id =
  let i = lower_bound ids id 0 (Array.length ids) in
  if i < Array.length ids && ids.(i) = id then i else -1

let node_number tp id =
  if id >= 0 && id < Array.length tp.ids && tp.ids.(id) = id then id else index tp.ids id

(* A node's out-channels ascend by destination number. *)
let channel_number tp a b =
  let i = node_number tp a and j = node_number tp b in
  if i < 0 || j < 0 then -1
  else
    let hi = tp.out_start.(i + 1) in
    let c = lower_bound tp.chan_dst j tp.out_start.(i) hi in
    if c < hi && tp.chan_dst.(c) = j then c else -1

let channel_ends tp c = (tp.ids.(tp.chan_src.(c)), tp.ids.(tp.chan_dst.(c)))

let make_topology ~nodes ~channels =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Network.make_topology: " ^ m)) fmt in
  let ids = Array.of_list (List.sort Int.compare nodes) in
  Array.iteri (fun i id -> if i > 0 && ids.(i - 1) = id then fail "node %d twice" id) ids;
  let number id = match index ids id with -1 -> fail "no node %d" id | i -> i in
  let chans =
    Array.of_list (List.sort compare (List.map (fun (a, b) -> (number a, number b)) channels))
  in
  Array.iteri
    (fun c (a, b) ->
      if c > 0 && chans.(c - 1) = (a, b) then fail "channel %d->%d twice" ids.(a) ids.(b))
    chans;
  let chan_src = Array.map fst chans and n = Array.length ids in
  let out_start = Array.make (n + 1) 0 in
  Array.iter (fun a -> out_start.(a + 1) <- out_start.(a + 1) + 1) chan_src;
  for i = 1 to n do
    out_start.(i) <- out_start.(i) + out_start.(i - 1)
  done;
  { ids; out_start; chan_src; chan_dst = Array.map snd chans }

type 'msg t = {
  eng : Engine.t;
  metrics : net_metrics option;
  topo : topology;
  first_handler : int -> src:int -> 'msg -> unit;  (* a node's until [set_handler] *)
  nodes : 'msg node option array;  (* by node number, made on first use *)
  net_rng : Rng.t;
  mutable control_handler : (chan:int -> self:int -> src:int -> control -> unit) option;
  mutable tap : (chan:int -> dst:int -> src:int -> 'msg -> unit) option;
  mutable transform : (src:int -> dst:int -> 'msg -> 'msg list) option;
  mutable crash_policy : crash_policy;
  mutable crash_log : crash list;  (* newest first *)
  mutable sent : int;
  mutable delivered : int;
  mutable flying : int;
  mutable dropped : int;
  mutable next_seq : int;
}

(* Records are made on first use: a node's with its first handler, a
   channel's (below) with an ideal link, which draws nothing from a
   generator and so can share the network's. *)
let node_at t i =
  match t.nodes.(i) with
  | Some n -> n
  | None ->
      let degree = t.topo.out_start.(i + 1) - t.topo.out_start.(i) in
      let n =
        { handler = t.first_handler t.topo.ids.(i); nd_up = true; nd_down_since = None;
          out = (if degree = 0 then [||] else Array.make degree None) }
      in
      t.nodes.(i) <- Some n;
      n

let topology t = t.topo
let engine t = t.eng

let bump t f = match t.metrics with Some m -> f m | None -> ()

let has_node t id = node_number t.topo id >= 0

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

let node_of t id =
  match node_number t.topo id with
  | -1 -> invalid_arg (Printf.sprintf "Network: no node %d" id)
  | i -> node_at t i

let set_handler t id handler = (node_of t id).handler <- handler

let node_is_up t id = (node_of t id).nd_up

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
  emit_lazy t ~node:src ~kind:"drop" (fun () ->
      match env with Data _ -> "message lost to churn" | Control _ -> "marker lost to churn")

let deliver t c ch =
  let tp = t.topo in
  let src = tp.ids.(tp.chan_src.(c)) and dst = tp.ids.(tp.chan_dst.(c)) in
  let env =
    match ch.ch_first with
    | Flight f ->
        ch.ch_first <- f.next;
        if f.next == Landed then ch.ch_last <- Landed;
        f.env
    | Landed -> invalid_arg "Network: delivery on an empty channel"
  in
  t.flying <- t.flying - 1;
  let dst_node = node_at t tp.chan_dst.(c) in
  if not dst_node.nd_up then drop t ~src env
  else if not ch.ch_up then
    (* The link failed while the message was in flight. *)
    drop t ~src env
  else
    match env with
    | Control ctl -> (
        match t.control_handler with
        | Some f -> f ~chan:c ~self:dst ~src ctl
        | None -> ())
    | Data m -> (
        t.delivered <- t.delivered + 1;
        bump t (fun mt -> Telemetry.Metrics.incr mt.nm_delivered);
        (match t.tap with Some f -> f ~chan:c ~dst ~src m | None -> ());
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

(* Channel [c]'s record, with the action its every delivery runs. *)
let new_channel t c link rng =
  let rec ch =
    { link; chan_rng = rng; last_delivery = Time.zero; ch_up = true;
      ch_down_since = None; ch_first = Landed; ch_last = Landed;
      deliver = (fun () -> deliver t c ch) }
  in
  ch

(* Channel [c] out of node [n], number [i]. *)
let out_chan t n i c =
  let k = c - t.topo.out_start.(i) in
  match n.out.(k) with
  | Some ch -> ch
  | None ->
      let ch = new_channel t c Link.ideal t.net_rng in
      n.out.(k) <- Some ch;
      ch

let chan_at t c =
  let i = t.topo.chan_src.(c) in
  out_chan t (node_at t i) i c

let create ?label ?(links = fun () -> []) eng topo first_handler =
  let t =
    { eng;
      metrics = Option.map net_metrics label;
      topo;
      first_handler;
      nodes = Array.make (Array.length topo.ids) None;
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
      next_seq = 0 }
  in
  List.iter
    (fun (a, b, link) ->
      let fail () = invalid_arg (Printf.sprintf "Network.create: link %d->%d" a b) in
      match channel_number topo a b with
      | -1 -> fail ()
      | c ->
          let i = topo.chan_src.(c) in
          let n = node_at t i and k = c - topo.out_start.(i) in
          if Option.is_some n.out.(k) then fail ();
          n.out.(k) <- Some (new_channel t c link (Rng.split t.net_rng)))
    (links ());
  t

let channel_of t a b =
  match channel_number t.topo a b with
  | -1 -> invalid_arg (Printf.sprintf "Network: no channel %d->%d" a b)
  | c -> c

let link_is_up t a b = (chan_at t (channel_of t a b)).ch_up

let schedule_delivery t ch env =
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
  ignore (Engine.at t.eng arrival ch.deliver)

let transmit t c env =
  let i = t.topo.chan_src.(c) in
  let n = node_at t i in
  let ch = out_chan t n i c in
  (* A down node is silent: its timers may still fire, but nothing it
     tries to send reaches the wire.  A down link loses it too. *)
  if not (n.nd_up && ch.ch_up) then drop t ~src:t.topo.ids.(i) env
  else schedule_delivery t ch env

let set_link_down t a b =
  let ch = chan_at t (channel_of t a b) in
  if ch.ch_up then begin
    ch.ch_up <- false;
    ch.ch_down_since <- Some (Engine.now t.eng);
    bump t (fun m -> Telemetry.Metrics.incr m.nm_link_downs);
    emit_lazy t ~node:a ~kind:"churn" (fun () ->
        Printf.sprintf "link %d->%d down" a b)
  end

let link_up t c ch =
  let a, b = channel_ends t.topo c in
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
        Printf.sprintf "link %d->%d up" a b)
  end

let set_link_up t a b =
  let c = channel_of t a b in
  link_up t c (chan_at t c)

let partition t xs ys =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if channel_number t.topo a b >= 0 then set_link_down t a b;
          if channel_number t.topo b a >= 0 then set_link_down t b a)
        ys)
    xs

(* In channel order, which is node order and, within a node, out-slice
   order; a channel with no record yet is up. *)
let heal t =
  Array.iteri
    (fun i -> function
      | Some n ->
          Array.iteri (fun k -> Option.iter (link_up t (t.topo.out_start.(i) + k))) n.out
      | None -> ())
    t.nodes

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  bump t (fun m -> Telemetry.Metrics.incr m.nm_sent);
  emit_lazy t ~node:src ~kind:"send" (fun () ->
      Printf.sprintf "to %d" dst);
  let c = channel_number t.topo src dst in
  if c < 0 then invalid_arg (Printf.sprintf "Network.send: no channel %d->%d" src dst);
  (* The wire transform only sees application data — control markers
     belong to the snapshot algorithm and must stay intact. *)
  match t.transform with
  | None -> transmit t c (Data msg)
  | Some f -> List.iter (fun m -> transmit t c (Data m)) (f ~src ~dst msg)

let control ctl = Control ctl
let send_control = transmit

let set_control_handler t f = t.control_handler <- Some f
let set_delivery_tap t tap = t.tap <- tap
let set_transform t f = t.transform <- f
let set_crash_policy t p = t.crash_policy <- p
let crashes t = List.rev t.crash_log

let channels t = List.init (Array.length t.topo.chan_src) (channel_ends t.topo)

let neighbors_out t id =
  match node_number t.topo id with
  | -1 -> []
  | i ->
      let first = t.topo.out_start.(i) in
      List.init (t.topo.out_start.(i + 1) - first) (fun k -> snd (channel_ends t.topo (first + k)))

let neighbors_in t id = List.filter_map (fun (a, b) -> if b = id then Some a else None) (channels t)

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
    (* A channel or node with no record yet is described as a new one. *)
    let blank = new_channel t (-1) Link.ideal t.net_rng in
    let record c =
      let i = t.topo.chan_src.(c) in
      match t.nodes.(i) with
      | Some n -> Option.value n.out.(c - t.topo.out_start.(i)) ~default:blank
      | None -> blank
    in
    let chans =
      List.init (Array.length t.topo.chan_src) (fun c -> (channel_ends t.topo c, record c))
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
        List.map (fun (k, ch) -> (k, ch.ch_up, max 0 (Time.to_us ch.last_delivery - now))) chans
      in
      let nodes =
        List.init (Array.length t.nodes) (fun i ->
            (t.topo.ids.(i), match t.nodes.(i) with Some n -> n.nd_up | None -> true))
      in
      Some
        (Digest.string
           (Marshal.to_string
              (flights, channels, nodes, t.crash_policy)
              [ Marshal.No_sharing ]))
    end
