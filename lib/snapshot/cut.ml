type channel_record = { ch_from : int; ch_to : int; ch_messages : string list }

type snapshot = {
  snap_id : int;
  initiator : int;
  started_at : Netsim.Time.t;
  completed_at : Netsim.Time.t;
  checkpoints : (int * Checkpoint.t) list;
  channels : channel_record list;
  topology : Netsim.Network.topology;
  control_messages : int;
}

type result = Complete of snapshot | Partial of snapshot * (int * int) list

let snapshot_of = function Complete s | Partial (s, _) -> s
let stalled_of = function Complete _ -> [] | Partial (_, st) -> st

let in_flight_total snapshot =
  List.fold_left (fun acc c -> acc + List.length c.ch_messages) 0 snapshot.channels

type chan_status = Recording of string list ref | Closed of string list

type active_snap = {
  a_id : int;
  a_initiator : int;
  a_started : Netsim.Time.t;
  a_checkpoints : (int, Checkpoint.t) Hashtbl.t;
  a_channels : (int * int, chan_status) Hashtbl.t;
  mutable a_markers_sent : int;
  (* The channel set pinned at initiation time: completion accounting is
     judged against this, so channels appearing later cannot corrupt it
     and channels that stall show up in the Partial result.  [a_missing]
     holds the expected channels whose marker has not arrived: the cut
     is done when it is empty. *)
  a_expected : (int * int) list;
  a_missing : (int * int, unit) Hashtbl.t;
  a_topology : Netsim.Network.topology;  (* the network at initiation *)
  mutable a_timer : Netsim.Engine.timer option;
  a_on_result : result -> unit;
}

type t = {
  net : string Netsim.Network.t;
  speakers : int -> Bgp.Speaker.t;
  active_tbl : (int, active_snap) Hashtbl.t;
  mutable n_completed : int;
  mutable n_aborted : int;
  mutable next_id : int;
}

let now t = Netsim.Engine.now (Netsim.Network.engine t.net)

let build_snapshot t a =
  let checkpoints =
    Hashtbl.fold (fun node cp acc -> (node, cp) :: acc) a.a_checkpoints []
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  (* One record per expected channel, in [a_expected]'s ascending
     order: gathered messages where we have them, empty otherwise — so
     a shadow spawned from a partial cut still knows the full channel
     structure. *)
  let channels =
    List.map
      (fun (f, d) ->
        let msgs =
          match Hashtbl.find_opt a.a_channels (f, d) with
          | Some (Recording r) -> List.rev !r
          | Some (Closed m) -> m
          | None -> []
        in
        { ch_from = f; ch_to = d; ch_messages = msgs })
      a.a_expected
  in
  { snap_id = a.a_id;
    initiator = a.a_initiator;
    started_at = a.a_started;
    completed_at = now t;
    checkpoints;
    channels;
    topology = a.a_topology;
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
    let stalled = List.filter (Hashtbl.mem a.a_missing) a.a_expected in
    settle t a (Partial (build_snapshot t a, stalled))
  end

(* First involvement of [node] in snapshot [a]: checkpoint it, start
   recording every incoming channel, and flood markers downstream.
   [closed_from] is the incoming channel whose marker triggered this
   (recorded empty per the algorithm); [None] at the initiator. *)
let engage t a node ~closed_from =
  Hashtbl.replace a.a_checkpoints node (Checkpoint.take ~at:(now t) (t.speakers node));
  List.iter
    (fun src ->
      let key = (src, node) in
      match closed_from with
      | Some c when c = src -> Hashtbl.replace a.a_channels key (Closed [])
      | Some _ | None -> Hashtbl.replace a.a_channels key (Recording (ref [])))
    (Netsim.Network.neighbors_in t.net node);
  List.iter
    (fun dst ->
      a.a_markers_sent <- a.a_markers_sent + 1;
      Netsim.Network.send_control t.net ~src:node ~dst
        (Netsim.Network.Marker { snapshot = a.a_id; initiator = a.a_initiator }))
    (Netsim.Network.neighbors_out t.net node)

let check_done t a = if Hashtbl.length a.a_missing = 0 then finish t a

(* A second marker on one channel finds its node engaged and the
   channel closed, so handling it again changes nothing. *)
let on_marker t ~self ~src ~snapshot =
  match Hashtbl.find_opt t.active_tbl snapshot with
  | None -> () (* marker of an already-finished snapshot: stale, ignore *)
  | Some a ->
      Hashtbl.remove a.a_missing (src, self);
      (if not (Hashtbl.mem a.a_checkpoints self) then
         engage t a self ~closed_from:(Some src)
       else
         match Hashtbl.find_opt a.a_channels (src, self) with
         | Some (Recording r) ->
             Hashtbl.replace a.a_channels (src, self) (Closed (List.rev !r))
         | Some (Closed _) | None -> ());
      check_done t a

let on_delivery t ~dst ~src msg =
  Hashtbl.iter
    (fun _ a ->
      match Hashtbl.find_opt a.a_channels (src, dst) with
      | Some (Recording r) -> r := msg :: !r
      | Some (Closed _) | None -> ())
    t.active_tbl

let create ~speakers net =
  let t =
    { net; speakers; active_tbl = Hashtbl.create 4; n_completed = 0; n_aborted = 0;
      next_id = 0 }
  in
  Netsim.Network.set_control_handler net (fun ~self ~src control ->
      match control with
      | Netsim.Network.Marker { snapshot; initiator = _ } -> on_marker t ~self ~src ~snapshot);
  Netsim.Network.set_delivery_tap net (Some (fun ~dst ~src msg -> on_delivery t ~dst ~src msg));
  t

let initiate ?deadline t ~initiator ~on_result =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let expected = Netsim.Network.channels t.net in
  let missing = Hashtbl.create (List.length expected) in
  List.iter (fun c -> Hashtbl.replace missing c ()) expected;
  let a =
    { a_id = id; a_initiator = initiator; a_started = now t;
      a_checkpoints = Hashtbl.create 32; a_channels = Hashtbl.create 64;
      a_markers_sent = 0; a_expected = expected; a_missing = missing;
      a_topology = Netsim.Network.topology t.net;
      a_timer = None;
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
  (try engage t a initiator ~closed_from:None
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
