type clone = {
  cl_snapshot : Cut.snapshot;
  cl_engine : Netsim.Engine.t;
  cl_net : string Netsim.Network.t;
  mutable cl_touched : (int * Bgp.Speaker.t) list;
}

type shadow = {
  sh_clone : clone;
  sh_engine : Netsim.Engine.t;
  sh_speakers : (int * Bgp.Speaker.t) list;
}

(* Node number [i]'s speaker, respawned from its checkpoint on the
   clone's network: the slot is made on first touch. *)
let respawn ?bugs c i =
  match c.cl_snapshot.Cut.by_number.(i) with
  | None ->
      invalid_arg
        (Printf.sprintf "Store.speaker: node %d not in shadow"
           c.cl_snapshot.Cut.topology.Netsim.Network.ids.(i))
  | Some cp ->
      let sp = Checkpoint.respawn ?bugs cp ~net:c.cl_net in
      c.cl_touched <- (i, sp) :: c.cl_touched;
      sp

(* The speaker respawned at node number [i], if any.  A replay touches
   a handful of nodes, so a list costs less than an array over the
   topology. *)
let rec live i = function
  | [] -> None
  | (j, sp) :: rest -> if j = i then Some sp else live i rest

let touch_number c i = match live i c.cl_touched with Some sp -> sp | None -> respawn c i

let number c id =
  match Netsim.Network.node_number c.cl_snapshot.Cut.topology id with
  | -1 -> invalid_arg (Printf.sprintf "Store.speaker: node %d not in shadow" id)
  | i -> i

let touch c id = touch_number c (number c id)

let clone ?(deliver_in_flight = true) (snap : Cut.snapshot) =
  let engine = Netsim.Engine.create ~seed:(0xD1CE + snap.Cut.snap_id) () in
  let topo = snap.Cut.topology in
  (* Ideal links: shadow exploration cares about ordering and content,
     not latency.  A node's first delivery respawns its speaker, which
     takes over as the node's handler; the black-hole stand-ins of a
     partial cut drop what they get.  The network's handlers are made
     before the clone, so they reach it through [self]. *)
  let self = ref None in
  let first id =
    let i = Netsim.Network.node_number topo id in
    match snap.Cut.by_number.(i) with
    | Some _ ->
        fun ~src raw -> (touch_number (Option.get !self) i).sp_process_raw ~from_node:src raw
    | None -> fun ~src:_ _ -> ()
  in
  let net = Netsim.Network.create engine topo first in
  let c =
    { cl_snapshot = snap; cl_engine = engine; cl_net = net; cl_touched = [] }
  in
  self := Some c;
  if deliver_in_flight then
    List.iter
      (fun (r : Cut.channel_record) ->
        List.iter (fun msg -> Netsim.Network.send net ~src:r.Cut.ch_from ~dst:r.Cut.ch_to msg)
          r.Cut.ch_messages)
      snap.Cut.channels;
  c

let sorted c = List.sort (fun (i, _) (j, _) -> Int.compare i j) c.cl_touched

let touched c =
  List.map
    (fun (i, sp) -> (Option.get c.cl_snapshot.Cut.by_number.(i), sp))
    (sorted c)

(* Every checkpointed node in node order, with its speaker if touched:
   one walk over the checkpoints and the sorted touched list. *)
let fold f c acc =
  let cps = c.cl_snapshot.Cut.by_number in
  let rec go i touched acc =
    if i = Array.length cps then acc
    else
      match (cps.(i), touched) with
      | None, _ -> go (i + 1) touched acc
      | Some cp, (j, sp) :: rest when j = i -> go (i + 1) rest (f cp (Some sp) acc)
      | Some cp, _ -> go (i + 1) touched (f cp None acc)
  in
  go 0 (sorted c) acc

(* The speaker a shadow lists for node number [i].  Until it is touched
   it answers its config, RIB, bug flags and digest from the capture, as
   a fresh respawn would; anything else respawns it first and then
   forwards. *)
let proxy c i (cp : Checkpoint.t) =
  let cap = cp.Checkpoint.image in
  let live () = live i c.cl_touched and touch () = touch_number c i in
  { Bgp.Speaker.sp_node = cp.Checkpoint.node;
    sp_impl = cap.Bgp.Speaker.cap_impl;
    sp_config =
      (fun () -> match live () with Some sp -> sp.sp_config () | None -> cap.cap_config);
    sp_set_config = (fun cfg -> (touch ()).sp_set_config cfg);
    sp_rib = (fun () -> match live () with Some sp -> sp.sp_rib () | None -> cap.cap_rib);
    sp_bugs = (fun () -> match live () with Some sp -> sp.sp_bugs () | None -> cap.cap_bugs);
    sp_set_bugs = (fun bugs -> (touch ()).sp_set_bugs bugs);
    sp_start = (fun () -> (touch ()).sp_start ());
    sp_established = (fun () -> (touch ()).sp_established ());
    sp_process_raw = (fun ~from_node raw -> (touch ()).sp_process_raw ~from_node raw);
    sp_inject_update = (fun ~from u -> (touch ()).sp_inject_update ~from u);
    sp_stats = (fun () -> (touch ()).sp_stats ());
    sp_digest =
      (fun () -> match live () with Some sp -> sp.sp_digest () | None -> cap.cap_digest ());
    sp_capture = (fun () -> (touch ()).sp_capture ()) }

let spawn ?bugs_of ?deliver_in_flight snap =
  let c = clone ?deliver_in_flight snap in
  (* A node told to run other code than it ran at the cut is no longer
     its capture. *)
  Option.iter
    (fun bugs_of ->
      Array.iteri
        (fun i -> function
          | Some (cp : Checkpoint.t) ->
              let bugs = bugs_of cp.Checkpoint.node in
              if bugs <> cp.Checkpoint.image.Bgp.Speaker.cap_bugs then
                ignore (respawn ~bugs c i)
          | None -> ())
        snap.Cut.by_number)
    bugs_of;
  let speakers = ref [] in
  for i = Array.length snap.Cut.by_number - 1 downto 0 do
    match snap.Cut.by_number.(i) with
    | Some cp -> speakers := (cp.Checkpoint.node, proxy c i cp) :: !speakers
    | None -> ()
  done;
  { sh_clone = c; sh_engine = c.cl_engine; sh_speakers = !speakers }

let speaker sh id = touch sh.sh_clone id

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
  fold
    (fun (cp : Checkpoint.t) live acc ->
      let loc =
        match live with
        | Some sp -> Bgp.Speaker.loc_rib sp
        | None -> cp.Checkpoint.image.Bgp.Speaker.cap_rib.Bgp.Rib.loc
      in
      Bgp.Prefix_trie.fold (fun p r acc -> acc + entry_hash cp.Checkpoint.node p r) loc acc)
    sh.sh_clone 0

(* The touched speakers' Loc-RIBs, with their checkpoints. *)
let touched_loc_ribs c = List.map (fun (cp, sp) -> (cp, Bgp.Speaker.loc_rib sp)) (touched c)

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

let fingerprint_since_capture c = fingerprint_of_touched (touched_loc_ribs c)

let digest c =
  Option.map
    (fun net ->
      Digest.string
        (String.concat ""
           (net
           :: List.rev
                (fold
                   (fun (cp : Checkpoint.t) live acc ->
                     (match live with
                     | Some sp -> sp.Bgp.Speaker.sp_digest ()
                     | None -> cp.Checkpoint.image.Bgp.Speaker.cap_digest ())
                     :: acc)
                   c []))))
    (Netsim.Network.digest c.cl_net)

type settled = Quiesced | Oscillating | Diverging

(* Events between Loc-RIB samples. *)
let sample_every = 100

let settle ?(budget = 200_000) c =
  let eng = c.cl_engine in
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
    let locs = touched_loc_ribs c in
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
      match digest c with
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

let run_to_quiescence ?(max_events = 100_000) c = settle ~budget:max_events c = Quiesced
