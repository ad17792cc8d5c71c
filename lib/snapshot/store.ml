type shadow = {
  sh_engine : Netsim.Engine.t;
  sh_net : string Netsim.Network.t;
  sh_speakers : (int * Bgp.Speaker.t) list;
  sh_touch : int -> Bgp.Speaker.t;
  sh_from : int;
}

(* One checkpointed node of a shadow: its capture until something needs
   the speaker itself, then the speaker respawned from it. *)
type slot = {
  id : int;
  cp : Checkpoint.t;
  bugs : Bgp.Router.bugs;
  net : string Netsim.Network.t;
  mutable live : Bgp.Speaker.t option;
}

let touch s =
  match s.live with
  | Some sp -> sp
  | None ->
      let sp = Checkpoint.respawn ~bugs:s.bugs s.cp ~net:s.net in
      s.live <- Some sp;
      sp

(* The speaker a shadow lists for [s].  Until [s] is touched it answers
   its config, RIB, bug flags and digest from the capture, as a fresh
   respawn would; anything else respawns it first and then forwards. *)
let proxy s =
  let cap = s.cp.Checkpoint.image in
  { Bgp.Speaker.sp_node = s.id;
    sp_impl = cap.Bgp.Speaker.cap_impl;
    sp_config =
      (fun () -> match s.live with Some sp -> sp.sp_config () | None -> cap.cap_config);
    sp_set_config = (fun cfg -> (touch s).sp_set_config cfg);
    sp_rib = (fun () -> match s.live with Some sp -> sp.sp_rib () | None -> cap.cap_rib);
    sp_bugs = (fun () -> match s.live with Some sp -> sp.sp_bugs () | None -> s.bugs);
    sp_set_bugs = (fun bugs -> (touch s).sp_set_bugs bugs);
    sp_start = (fun () -> (touch s).sp_start ());
    sp_established = (fun () -> (touch s).sp_established ());
    sp_process_raw = (fun ~from_node raw -> (touch s).sp_process_raw ~from_node raw);
    sp_inject_update = (fun ~from u -> (touch s).sp_inject_update ~from u);
    sp_stats = (fun () -> (touch s).sp_stats ());
    sp_digest =
      (fun () -> match s.live with Some sp -> sp.sp_digest () | None -> cap.cap_digest ());
    sp_capture = (fun () -> (touch s).sp_capture ()) }

(* [slots] ascend by id, as the snapshot's checkpoints do. *)
let find slots id =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let s = slots.(mid) in
      if s.id = id then Some s else if s.id < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length slots)

let spawn ?bugs_of ?(deliver_in_flight = true) (snap : Cut.snapshot) =
  let engine = Netsim.Engine.create ~seed:(0xD1CE + snap.Cut.snap_id) () in
  let slots = ref [||] in
  (* Ideal links: shadow exploration cares about ordering and content,
     not latency.  A node's first delivery respawns its speaker, which
     takes over as the node's handler; the black-hole stand-ins of a
     partial cut drop what they get. *)
  let net =
    Netsim.Network.over engine snap.Cut.topology (fun id ->
        match find !slots id with
        | Some s -> fun ~src raw -> (touch s).sp_process_raw ~from_node:src raw
        | None -> fun ~src:_ _ -> ())
  in
  slots :=
    Array.of_list
      (List.map
         (fun (id, (cp : Checkpoint.t)) ->
           let bugs =
             match bugs_of with
             | Some f -> f id
             | None -> cp.Checkpoint.image.Bgp.Speaker.cap_bugs
           in
           { id; cp; bugs; net; live = None })
         snap.Cut.checkpoints);
  (* A node told to run other code than it ran at the cut is no longer
     its capture. *)
  Array.iter
    (fun s -> if s.bugs <> s.cp.Checkpoint.image.Bgp.Speaker.cap_bugs then ignore (touch s))
    !slots;
  if deliver_in_flight then
    List.iter
      (fun (c : Cut.channel_record) ->
        List.iter
          (fun msg ->
            Netsim.Network.send net ~src:c.Cut.ch_from ~dst:c.Cut.ch_to msg)
          c.Cut.ch_messages)
      snap.Cut.channels;
  let slots = !slots in
  { sh_engine = engine;
    sh_net = net;
    sh_speakers = Array.fold_right (fun s acc -> (s.id, proxy s) :: acc) slots [];
    sh_touch =
      (fun id ->
        match find slots id with
        | Some s -> touch s
        | None -> invalid_arg (Printf.sprintf "Store.speaker: node %d not in shadow" id));
    sh_from = snap.Cut.snap_id }

let speaker sh id = sh.sh_touch id

let loc_ribs sh =
  List.map (fun (id, sp) -> (id, Bgp.Speaker.loc_rib sp)) sh.sh_speakers

(* Full-content digest: [Hashtbl.hash] samples only a prefix of large
   structures, which would let distinct global states collide (or
   changed states alias) and confuse the oscillation detector. *)
let fingerprint_of_loc_ribs ribs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (id, loc) ->
      Buffer.add_string b (string_of_int id);
      Buffer.add_char b ':';
      Bgp.Prefix.Map.iter
        (fun p (route : Bgp.Rib.route) ->
          Buffer.add_string b (Bgp.Prefix.to_string p);
          Buffer.add_char b '>';
          Buffer.add_string b
            (Bgp.Ipv4.to_string route.Bgp.Rib.source.Bgp.Rib.peer_addr);
          Buffer.add_char b '[';
          Buffer.add_string b
            (Bgp.As_path.to_string route.Bgp.Rib.attrs.Bgp.Attr.as_path);
          Buffer.add_string b "];")
        loc;
      Buffer.add_char b '\n')
    ribs;
  Hashtbl.hash (Digest.string (Buffer.contents b))

let loc_rib_fingerprint sh = fingerprint_of_loc_ribs (loc_ribs sh)

let digest sh =
  Option.map
    (fun net ->
      Digest.string
        (String.concat ""
           (net :: List.map (fun (_, (sp : Bgp.Speaker.t)) -> sp.Bgp.Speaker.sp_digest ()) sh.sh_speakers)))
    (Netsim.Network.digest sh.sh_net)

type settled = Quiesced | Oscillating | Diverging

(* Events between Loc-RIB samples. *)
let sample_every = 100

let settle ?(budget = 200_000) sh =
  let eng = sh.sh_engine in
  let seen = Hashtbl.create 64 in
  let last = ref None in
  (* A revisit means the global state left a fingerprint and came back
     to it (A -> B -> A); consecutive identical samples are just an
     idle network, not oscillation. *)
  let visit ribs =
    let fp = fingerprint_of_loc_ribs ribs in
    let changed = !last <> Some fp in
    let known = Hashtbl.mem seen fp in
    Hashtbl.replace seen fp ();
    last := Some fp;
    changed && known
  in
  (* A revisit needs three samples, so the first two are held as
     Loc-RIB pointers and digested, in order, only when a third is
     taken; a shadow that quiesces sooner digests nothing. *)
  let held = ref (Some []) in
  let revisits () =
    let ribs = loc_ribs sh in
    match !held with
    | Some older when List.length older < 2 ->
        held := Some (ribs :: older);
        false
    | Some older ->
        held := None;
        let revisited = List.fold_left (fun r s -> visit s || r) false (List.rev older) in
        visit ribs || revisited
    | None -> visit ribs
  in
  (* From the first revisit on, the full state is digested each time
     the clock has moved on since the last digest.  The shadow is
     deterministic, so a state seen at event [e1] and again at [e2]
     repeats every [e2 - e1] events from [e1] on, and the state at
     [budget] is the one [(budget - e1) mod (e2 - e1)] events past
     [e2].  Instants, not the every-100-events samples: a period of 172
     events would show at those only after lcm (172, 100) = 4,300.  A
     run takes no more digests than those samples would, so a revisit
     that never recurs steps on to the budget at a bounded cost. *)
  let states = Hashtbl.create 16 in
  let digests = ref 0 and digested = ref None in
  let recurrence events =
    let now = Netsim.Engine.now eng in
    if !digested = Some now || !digests >= budget / sample_every then None
    else begin
      incr digests;
      digested := Some now;
      match digest sh with
      | None -> None
      | Some d -> (
          match Hashtbl.find_opt states d with
          | Some e1 -> Some (events + ((budget - e1) mod (events - e1)))
          | None ->
              Hashtbl.replace states d events;
              None)
    end
  in
  let rec go events stop revisited ~watching =
    if Netsim.Engine.pending eng = 0 then Quiesced
    else if events >= stop then if revisited then Oscillating else Diverging
    else
      let revisited =
        revisited || (events mod sample_every = 0 && revisits ())
      in
      match if revisited && watching then recurrence events else None with
      | Some stop -> go events stop revisited ~watching:false
      | None ->
          ignore (Netsim.Engine.step eng);
          go (events + 1) stop revisited ~watching
  in
  go 0 budget false ~watching:true

let run_to_quiescence ?(max_events = 100_000) sh = settle ~budget:max_events sh = Quiesced
