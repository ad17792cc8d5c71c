type channel_record = { ch_from : int; ch_to : int; ch_messages : string list }

type snapshot = {
  snap_id : int;
  initiator : int;
  started_at : Netsim.Time.t;
  completed_at : Netsim.Time.t;
  checkpoints : (int * Checkpoint.t) list;
  by_number : Checkpoint.t option array;
  channels : channel_record list;
  topology : Netsim.Network.topology;
  control_messages : int;
}

type result = Complete of snapshot | Partial of snapshot * (int * int) list

let snapshot_of = function Complete s | Partial (s, _) -> s
let stalled_of = function Complete _ -> [] | Partial (_, st) -> st

let in_flight_total snapshot =
  List.fold_left (fun acc c -> acc + List.length c.ch_messages) 0 snapshot.channels

(* Indexed by the network topology's node and channel numbers.  A
   channel records what arrives from its destination's checkpoint
   until its marker closes it. *)
type active_snap = {
  a_id : int;
  a_initiator : int;
  a_started : Netsim.Time.t;
  a_checkpoints : Checkpoint.t option array;
  a_closed : bool array;
  a_recorded : string list array;  (* newest first *)
  a_marker : Netsim.Network.control;  (* the one every channel carries *)
  mutable a_markers_sent : int;
  mutable a_missing : int;  (* channels still open: the cut is done at 0 *)
  mutable a_timer : Netsim.Engine.timer option;
  a_on_result : result -> unit;
}

type t = {
  net : string Netsim.Network.t;
  topo : Netsim.Network.topology;
  speakers : int -> Bgp.Speaker.t;
  active_tbl : (int, active_snap) Hashtbl.t;
  mutable n_completed : int;
  mutable n_aborted : int;
  mutable next_id : int;
}

let now t = Netsim.Engine.now (Netsim.Network.engine t.net)

(* A record for each channel that recorded messages, in channel order.
   The cut is settled when this runs, so nothing writes its checkpoint
   array again and the snapshot can share it. *)
let build_snapshot t a =
  { snap_id = a.a_id;
    initiator = a.a_initiator;
    started_at = a.a_started;
    completed_at = now t;
    checkpoints =
      Array.fold_right
        (fun cp acc -> match cp with Some cp -> (cp.Checkpoint.node, cp) :: acc | None -> acc)
        a.a_checkpoints [];
    by_number = a.a_checkpoints;
    channels =
      (let rec from c acc =
         if c < 0 then acc
         else
           match a.a_recorded.(c) with
           | [] -> from (c - 1) acc
           | newest_first ->
               let ch_from, ch_to = Netsim.Network.channel_ends t.topo c in
               from (c - 1) ({ ch_from; ch_to; ch_messages = List.rev newest_first } :: acc)
       in
       from (Array.length a.a_recorded - 1) []);
    topology = t.topo;
    control_messages = a.a_markers_sent }

let m_complete = lazy (Telemetry.Metrics.counter "cut.complete")
let m_partial = lazy (Telemetry.Metrics.counter "cut.partial")
let m_stalled = lazy (Telemetry.Metrics.counter "cut.stalled_channels")

let settle t a result =
  (match a.a_timer with Some tm -> Netsim.Engine.cancel tm | None -> ());
  a.a_timer <- None;
  Hashtbl.remove t.active_tbl a.a_id;
  (match result with
  | Complete _ ->
      t.n_completed <- t.n_completed + 1;
      Telemetry.Metrics.incr (Lazy.force m_complete)
  | Partial (_, stalled) ->
      t.n_aborted <- t.n_aborted + 1;
      Telemetry.Metrics.incr (Lazy.force m_partial);
      Telemetry.Metrics.add (Lazy.force m_stalled) (List.length stalled));
  a.a_on_result result

let finish t a = settle t a (Complete (build_snapshot t a))

let abort t a =
  if Hashtbl.mem t.active_tbl a.a_id then begin
    let stalled =
      List.filter (fun c -> not a.a_closed.(c)) (List.init (Array.length a.a_closed) Fun.id)
      |> List.map (Netsim.Network.channel_ends t.topo)
    in
    settle t a (Partial (build_snapshot t a, stalled))
  end

(* First involvement of [node] in snapshot [a]: checkpoint it, which
   starts recording its open incoming channels, and flood markers
   downstream. *)
let engage t a node =
  let tp = t.topo in
  let cp = Checkpoint.take ~at:(now t) (t.speakers node) in
  let i = Netsim.Network.node_number tp node in
  if i < 0 then invalid_arg (Printf.sprintf "Cut: no node %d" node);
  a.a_checkpoints.(i) <- Some cp;
  for c = tp.out_start.(i) to tp.out_start.(i + 1) - 1 do
    a.a_markers_sent <- a.a_markers_sent + 1;
    Netsim.Network.send_control t.net ~src:node ~dst:tp.ids.(tp.chan_dst.(c)) a.a_marker
  done

let check_done t a = if a.a_missing = 0 then finish t a

(* The marker closes its channel, empty if it engages [self]; a second
   marker on one channel changes nothing. *)
let on_marker t ~self ~src ~snapshot =
  match Hashtbl.find_opt t.active_tbl snapshot with
  | None -> () (* marker of an already-finished snapshot: stale, ignore *)
  | Some a ->
      let c = Netsim.Network.channel_number t.topo src self in
      if not a.a_closed.(c) then begin
        a.a_closed.(c) <- true;
        a.a_missing <- a.a_missing - 1;
        if Option.is_none a.a_checkpoints.(t.topo.chan_dst.(c)) then engage t a self;
        check_done t a
      end

let on_delivery t ~dst ~src msg =
  if Hashtbl.length t.active_tbl > 0 then begin
    let c = Netsim.Network.channel_number t.topo src dst in
    Hashtbl.iter
      (fun _ a ->
        if (not a.a_closed.(c)) && Option.is_some a.a_checkpoints.(t.topo.chan_dst.(c)) then
          a.a_recorded.(c) <- msg :: a.a_recorded.(c))
      t.active_tbl
  end

let create ~speakers net =
  let t =
    { net; topo = Netsim.Network.topology net; speakers; active_tbl = Hashtbl.create 4;
      n_completed = 0; n_aborted = 0; next_id = 0 }
  in
  Netsim.Network.set_control_handler net (fun ~self ~src control ->
      match control with
      | Netsim.Network.Marker { snapshot; initiator = _ } -> on_marker t ~self ~src ~snapshot);
  Netsim.Network.set_delivery_tap net (Some (fun ~dst ~src msg -> on_delivery t ~dst ~src msg));
  t

let initiate ?deadline t ~initiator ~on_result =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let n = Array.length t.topo.Netsim.Network.ids and m = Array.length t.topo.chan_src in
  let a =
    { a_id = id; a_initiator = initiator; a_started = now t;
      a_checkpoints = Array.make n None; a_closed = Array.make m false;
      a_recorded = Array.make m [];
      a_marker = Netsim.Network.Marker { snapshot = id; initiator };
      a_markers_sent = 0; a_missing = m; a_timer = None;
      a_on_result = on_result }
  in
  Hashtbl.replace t.active_tbl id a;
  (match deadline with
  | Some d ->
      a.a_timer <-
        Some
          (Netsim.Engine.schedule
             (Netsim.Network.engine t.net)
             ~after:d
             (fun () -> abort t a))
  | None -> ());
  (* If engaging the initiator raises (e.g. its speaker is gone), the
     cut must not stay registered — nothing would ever settle it. *)
  (try engage t a initiator
   with e ->
     (match a.a_timer with Some tm -> Netsim.Engine.cancel tm | None -> ());
     Hashtbl.remove t.active_tbl id;
     raise e);
  (* A trivial topology (no channels) completes immediately. *)
  check_done t a;
  id

let active t = Hashtbl.length t.active_tbl
let completed t = t.n_completed
let aborted t = t.n_aborted
