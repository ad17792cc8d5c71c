type shadow = {
  sh_engine : Netsim.Engine.t;
  sh_net : string Netsim.Network.t;
  sh_speakers : (int * Bgp.Speaker.t) list;
  sh_touch : int -> Bgp.Speaker.t;
  sh_touched : unit -> (Checkpoint.t * Bgp.Speaker.t) list;
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
  touched : slot list ref;  (* the shadow's respawned slots, latest first *)
}

let touch s =
  match s.live with
  | Some sp -> sp
  | None ->
      let sp = Checkpoint.respawn ~bugs:s.bugs s.cp ~net:s.net in
      s.live <- Some sp;
      s.touched := s :: !(s.touched);
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

let spawn ?bugs_of ?(deliver_in_flight = true) (snap : Cut.snapshot) =
  let engine = Netsim.Engine.create ~seed:(0xD1CE + snap.Cut.snap_id) () in
  let topo = snap.Cut.topology in
  (* By node number; [None] for a node the cut did not checkpoint. *)
  let slots = Array.make (Array.length topo.Netsim.Network.ids) None and touched = ref [] in
  let slot id = match Netsim.Network.node_number topo id with -1 -> None | i -> slots.(i) in
  (* Ideal links: shadow exploration cares about ordering and content,
     not latency.  A node's first delivery respawns its speaker, which
     takes over as the node's handler; the black-hole stand-ins of a
     partial cut drop what they get. *)
  let net =
    Netsim.Network.create engine topo (fun id ->
        match slot id with
        | Some s -> fun ~src raw -> (touch s).sp_process_raw ~from_node:src raw
        | None -> fun ~src:_ _ -> ())
  in
  List.iter
    (fun (id, (cp : Checkpoint.t)) ->
      let bugs =
        match bugs_of with
        | Some f -> f id
        | None -> cp.Checkpoint.image.Bgp.Speaker.cap_bugs
      in
      slots.(Netsim.Network.node_number topo id) <-
        Some { id; cp; bugs; net; live = None; touched })
    snap.Cut.checkpoints;
  (* A node told to run other code than it ran at the cut is no longer
     its capture. *)
  Array.iter
    (function
      | Some s when s.bugs <> s.cp.Checkpoint.image.Bgp.Speaker.cap_bugs -> ignore (touch s)
      | Some _ | None -> ())
    slots;
  if deliver_in_flight then
    List.iter
      (fun (c : Cut.channel_record) ->
        List.iter
          (fun msg ->
            Netsim.Network.send net ~src:c.Cut.ch_from ~dst:c.Cut.ch_to msg)
          c.Cut.ch_messages)
      snap.Cut.channels;
  { sh_engine = engine;
    sh_net = net;
    sh_speakers =
      Array.fold_right
        (fun s acc -> match s with Some s -> (s.id, proxy s) :: acc | None -> acc)
        slots [];
    sh_touch =
      (fun id ->
        match slot id with
        | Some s -> touch s
        | None -> invalid_arg (Printf.sprintf "Store.speaker: node %d not in shadow" id));
    sh_touched =
      (fun () ->
        List.sort (fun a b -> Int.compare a.id b.id) !touched
        |> List.map (fun s -> (s.cp, Option.get s.live)));
    sh_from = snap.Cut.snap_id }

let speaker sh id = sh.sh_touch id

(* One Loc-RIB entry's share of a fingerprint: 63 bits of the MD5 of
   its rendering (node, prefix, peer and the full AS path), so equal
   renderings give equal shares and any other pair collides with
   probability about 2^-63.  [Hashtbl.hash] would sample only a bounded
   part of its argument, and keep 30 bits. *)
let entry_hash id prefix (route : Bgp.Rib.route) =
  Digest.string
    (Printf.sprintf "%d:%s>%s[%s]" id (Bgp.Prefix.to_string prefix)
       (Bgp.Ipv4.to_string route.Bgp.Rib.source.Bgp.Rib.peer_addr)
       (Bgp.As_path.to_string route.Bgp.Rib.attrs.Bgp.Attr.as_path))
  |> fun d -> Int64.to_int (String.get_int64_le d 0)

(* A fingerprint is the sum of its entries' shares (modulo 2^63), so it
   can be taken relative to any other state by adding the shares of the
   entries that differ. *)
let loc_rib_fingerprint sh =
  List.fold_left
    (fun acc (id, sp) ->
      Bgp.Prefix_trie.fold
        (fun p r acc -> acc + entry_hash id p r)
        (Bgp.Speaker.loc_rib sp) acc)
    0 sh.sh_speakers

(* The touched speakers' Loc-RIBs, with their checkpoints. *)
let touched_loc_ribs sh =
  List.map (fun (cp, sp) -> (cp, Bgp.Speaker.loc_rib sp)) (sh.sh_touched ())

(* An untouched speaker still holds its captured Loc-RIB and adds
   nothing; a touched one adds the shares of the entries it changed
   since. *)
let fingerprint_of_touched locs =
  List.fold_left
    (fun acc ((cp : Checkpoint.t), loc) ->
      let id = cp.Checkpoint.node in
      Bgp.Prefix_trie.fold_diff
        (fun p before after acc ->
          let acc = match before with Some r -> acc - entry_hash id p r | None -> acc in
          match after with Some r -> acc + entry_hash id p r | None -> acc)
        cp.Checkpoint.image.Bgp.Speaker.cap_rib.Bgp.Rib.loc loc acc)
    0 locs

let fingerprint_since_capture sh = fingerprint_of_touched (touched_loc_ribs sh)

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
  let visit locs =
    let fp = fingerprint_of_touched locs in
    let changed = !last <> Some fp in
    let known = Hashtbl.mem seen fp in
    Hashtbl.replace seen fp ();
    last := Some fp;
    changed && known
  in
  (* A revisit needs three samples, so the first two are held as the
     touched speakers' Loc-RIBs and hashed, in order, only when a third
     is taken; a shadow that quiesces sooner hashes nothing. *)
  let held = ref (Some []) in
  let revisits () =
    let locs = touched_loc_ribs sh in
    match !held with
    | Some older when List.length older < 2 ->
        held := Some (locs :: older);
        false
    | Some older ->
        held := None;
        let revisited = List.fold_left (fun r s -> visit s || r) false (List.rev older) in
        visit locs || revisited
    | None -> visit locs
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
