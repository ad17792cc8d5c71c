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

let run sh span =
  Netsim.Engine.run ~until:(Netsim.Time.add (Netsim.Engine.now sh.sh_engine) span)
    sh.sh_engine

let run_to_quiescence ?(max_events = 100_000) sh =
  let budget = ref max_events in
  let rec go () =
    if !budget <= 0 then false
    else if Netsim.Engine.pending sh.sh_engine = 0 then true
    else begin
      decr budget;
      ignore (Netsim.Engine.step sh.sh_engine);
      go ()
    end
  in
  go ()

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
