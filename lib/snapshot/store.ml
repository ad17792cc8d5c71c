type shadow = {
  sh_engine : Netsim.Engine.t;
  sh_net : string Netsim.Network.t;
  sh_speakers : (int * Bgp.Speaker.t) list;
  sh_by_id : (int, Bgp.Speaker.t) Hashtbl.t;
  sh_from : int;
}

let spawn ?bugs_of ?(deliver_in_flight = true)
    (snap : Cut.snapshot) =
  let engine = Netsim.Engine.create ~seed:(0xD1CE + snap.Cut.snap_id) () in
  let net = Netsim.Network.create engine in
  (* A partial cut's channel list can reference nodes the sweep never
     checkpointed; give those black-hole stand-ins so checkpointed
     speakers can still talk toward them. *)
  let nodes =
    List.sort_uniq Int.compare
      (List.map fst snap.Cut.checkpoints
      @ List.concat_map
          (fun (c : Cut.channel_record) -> [ c.Cut.ch_from; c.Cut.ch_to ])
          snap.Cut.channels)
  in
  List.iter (fun id -> Netsim.Network.add_node net id (fun ~src:_ _ -> ())) nodes;
  (* Recreate exactly the channels the snapshot saw, with ideal links:
     shadow exploration cares about ordering and content, not latency. *)
  List.iter
    (fun (c : Cut.channel_record) ->
      Netsim.Network.connect net c.Cut.ch_from c.Cut.ch_to Netsim.Link.ideal)
    snap.Cut.channels;
  let speakers =
    List.map
      (fun (id, cp) ->
        (id, Checkpoint.respawn ?bugs:(Option.map (fun f -> f id) bugs_of) cp ~net))
      snap.Cut.checkpoints
  in
  if deliver_in_flight then
    List.iter
      (fun (c : Cut.channel_record) ->
        List.iter
          (fun msg ->
            Netsim.Network.send net ~src:c.Cut.ch_from ~dst:c.Cut.ch_to msg)
          c.Cut.ch_messages)
      snap.Cut.channels;
  let by_id = Hashtbl.create (List.length speakers) in
  List.iter (fun (id, sp) -> Hashtbl.replace by_id id sp) speakers;
  { sh_engine = engine;
    sh_net = net;
    sh_speakers = speakers;
    sh_by_id = by_id;
    sh_from = snap.Cut.snap_id }

let speaker sh id =
  match Hashtbl.find_opt sh.sh_by_id id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Store.speaker: node %d not in shadow" id)

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
