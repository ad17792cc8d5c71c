type t = {
  sp_node : int;
  sp_impl : string;
  sp_config : unit -> Config.t;
  sp_set_config : Config.t -> unit;
  sp_rib : unit -> Rib.t;
  sp_bugs : unit -> Router.bugs;
  sp_set_bugs : Router.bugs -> unit;
  sp_start : unit -> unit;
  sp_established : unit -> Ipv4.t list;
  sp_process_raw : from_node:int -> string -> unit;
  sp_inject_update : from:Ipv4.t -> Msg.update -> unit;
  sp_stats : unit -> Netsim.Stats.t;
  sp_digest : unit -> Digest.t;
  sp_capture : unit -> capture;
}

and capture = {
  cap_node : int;
  cap_impl : string;
  cap_config : Config.t;
  cap_bugs : Router.bugs;
  cap_rib : Rib.t;
  cap_digest : unit -> Digest.t;
  cap_respawn : net:string Netsim.Network.t -> bugs:Router.bugs -> t;
}

let loc_rib t = (t.sp_rib ()).Rib.loc
let capture t = t.sp_capture ()

(* Racing domains may each compute the value; all of them return the
   one that was stored first. *)
let once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        ignore (Atomic.compare_and_set cell None (Some (f ())));
        Option.get (Atomic.get cell)

(* A router keeps its last capture and the state it was taken at: while
   its state, config and bug flags are still those values, nothing a
   capture reads has changed, so it is returned again, and its digest
   is computed once across cuts. *)
let rec of_router r =
  let last = ref None in
  { sp_node = Router.node r;
    sp_impl = "bird-like";
    sp_config = (fun () -> Router.config r);
    sp_set_config = Router.set_config r;
    sp_rib = (fun () -> Router.rib r);
    sp_bugs = (fun () -> Router.bugs r);
    sp_set_bugs = Router.set_bugs r;
    sp_start = (fun () -> Router.start r);
    sp_established = (fun () -> Router.established_peers r);
    sp_process_raw = (fun ~from_node raw -> Router.process_raw r ~from_node raw);
    sp_inject_update = (fun ~from u -> Router.inject_update r ~from u);
    sp_stats = (fun () -> Router.stats r);
    sp_digest = (fun () -> Router.digest r);
    sp_capture =
      (fun () ->
        let st = Router.state r and cfg = Router.config r and bugs = Router.bugs r in
        match !last with
        | Some (st', cap) when st == st' && cfg == cap.cap_config && bugs == cap.cap_bugs -> cap
        | Some _ | None ->
            let cap = capture_router r st cfg bugs in
            last := Some (st, cap);
            cap) }

and capture_router r st cfg bugs =
  { cap_node = Router.node r;
    cap_impl = "bird-like";
    cap_config = cfg;
    cap_bugs = bugs;
    cap_rib = st.Router.rib;
    cap_digest = once (fun () -> Router.respawn_digest ~bugs cfg st);
    cap_respawn =
      (fun ~net ~bugs -> of_router (Router.respawn ~bugs ~net ~node:(Router.node r) cfg st)) }
