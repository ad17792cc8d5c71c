(* An independent BGP speaker.  Shares only the wire codec, the policy
   engine and the configuration format with Router — its session
   handling, RIB organization and decision logic are written
   separately. *)

type phase = Down | Greeting | Up

type peer = {
  p_cfg : Config.neighbor;
  mutable p_phase : phase;
  mutable p_sent_open : bool;
  mutable p_got_open : bool;
  mutable p_in : Attr.t Prefix_trie.t;  (* post-import-policy *)
  mutable p_out : Attr.t Prefix_trie.t; (* last advertised *)
  mutable p_hold : Netsim.Engine.timer option;  (* liveness watchdog *)
  mutable p_retry : Netsim.Engine.timer option; (* re-greet loop *)
}

type t = {
  node : int;
  mutable cfg : Config.t;
  net : string Netsim.Network.t;
  eng : Netsim.Engine.t;
  mutable peers : (Ipv4.t * peer) list;
  (* loc: best attrs + the peer it came from (own address for local). *)
  mutable loc : (Attr.t * Ipv4.t) Prefix_trie.t;
  mutable view : Rib.t;
      (* [loc] and every peer's tables as a [Rib.t], written with them *)
  stats : Netsim.Stats.t;
  mutable bugs : Router.bugs;
  liveness : bool;
}

let address t = Router.addr_of_node t.node

let peer_of t addr = List.assoc_opt addr t.peers

let established_peers t =
  List.filter_map (fun (a, p) -> if p.p_phase = Up then Some a else None) t.peers

let trace t kind f = Netsim.Network.emit_lazy t.net ~node:t.node ~kind f

(* Sparrow keeps its own address as a local route's via; the Rib view
   uses [Rib.local_source], as Router does. *)
let source_of t via =
  if Ipv4.equal via (address t) then Rib.local_source
  else
    let remote_as =
      match peer_of t via with
      | Some p -> p.p_cfg.Config.remote_as
      | None -> 0
    in
    { Rib.peer_addr = via; peer_as = remote_as; peer_bgp_id = via;
      ebgp = remote_as <> t.cfg.Config.asn; igp_metric = 0 }

let route_of t (attrs, via) = { Rib.attrs; source = source_of t via }

(* Every table write goes through these, which make the same write to
   [view]; a write of nothing leaves [view] as it was. *)
let set_loc t prefix = function
  | Some chosen ->
      t.loc <- Prefix_trie.add prefix chosen t.loc;
      t.view <- Rib.loc_set prefix (route_of t chosen) t.view
  | None ->
      t.loc <- Prefix_trie.remove prefix t.loc;
      t.view <- Rib.loc_del prefix t.view

let set_in t (p : peer) prefix route =
  let addr = p.p_cfg.Config.addr in
  if not (Option.equal Attr.equal route (Prefix_trie.find prefix p.p_in)) then
    match route with
    | Some attrs ->
        p.p_in <- Prefix_trie.add prefix attrs p.p_in;
        t.view <- Rib.adj_in_set addr prefix { Rib.attrs; source = source_of t addr } t.view
    | None ->
        p.p_in <- Prefix_trie.remove prefix p.p_in;
        t.view <- Rib.adj_in_del addr prefix t.view

let set_out t (p : peer) prefix route =
  let addr = p.p_cfg.Config.addr in
  match route with
  | Some attrs ->
      p.p_out <- Prefix_trie.add prefix attrs p.p_out;
      t.view <- Rib.adj_out_set addr prefix attrs t.view
  | None ->
      p.p_out <- Prefix_trie.remove prefix p.p_out;
      t.view <- Rib.adj_out_del addr prefix t.view

let send t dst_addr msg =
  Netsim.Stats.incr t.stats ("tx_" ^ String.lowercase_ascii (Msg.kind msg));
  Netsim.Network.send t.net ~src:t.node ~dst:(Router.node_of_addr dst_addr)
    (Wire.encode msg)

let is_ibgp t (p : peer) = p.p_cfg.Config.remote_as = t.cfg.Config.asn

(* ------------------------------------------------------------------ *)
(* Decision process (independent implementation, same RFC semantics)   *)
(* ------------------------------------------------------------------ *)

(* Candidates are (attrs, via) where via = own address for the local
   route.  The comparison chain is written against RFC 4271 9.1.2.2
   directly. *)
let better t (a_attrs, a_via) (b_attrs, b_via) =
  let local via = Ipv4.equal via (address t) in
  let lp x = Attr.effective_local_pref x in
  let plen (x : Attr.t) = As_path.length x.Attr.as_path in
  let ocode (x : Attr.t) = Attr.origin_code x.Attr.origin in
  let med (x : Attr.t) = Option.value x.Attr.med ~default:0 in
  let neighbor (x : Attr.t) = As_path.neighbor_as x.Attr.as_path in
  if local a_via <> local b_via then local a_via
  else if lp a_attrs <> lp b_attrs then lp a_attrs > lp b_attrs
  else if plen a_attrs <> plen b_attrs then plen a_attrs < plen b_attrs
  else if ocode a_attrs <> ocode b_attrs then ocode a_attrs < ocode b_attrs
  else if
    (t.cfg.Config.always_compare_med
    || (neighbor a_attrs <> None && neighbor a_attrs = neighbor b_attrs))
    && med a_attrs <> med b_attrs
  then med a_attrs < med b_attrs
  else Ipv4.compare a_via b_via < 0

let acceptable t (attrs : Attr.t) =
  t.bugs.Router.skip_loop_check
  || not (As_path.contains t.cfg.Config.asn attrs.Attr.as_path)

let candidates_for t prefix =
  let local =
    if List.exists (Prefix.equal prefix) t.cfg.Config.networks then
      [ (Attr.make ~origin:Attr.Igp ~next_hop:(address t) (), address t) ]
    else []
  in
  let learned =
    List.filter_map
      (fun (addr, p) ->
        match Prefix_trie.find prefix p.p_in with
        | Some attrs when acceptable t attrs -> Some (attrs, addr)
        | Some _ | None -> None)
      t.peers
  in
  local @ learned

let select t prefix =
  match candidates_for t prefix with
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun best c -> if better t c best then c else best) first rest)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let export_attrs t (p : peer) prefix (attrs, via) =
  if Ipv4.equal via p.p_cfg.Config.addr then None
  else if Attr.has_community Community.no_advertise attrs then None
  else
    let ebgp = not (is_ibgp t p) in
    if ebgp && Attr.has_community Community.no_export attrs then None
    else
      let attrs =
        if ebgp then { attrs with Attr.local_pref = None; med = None } else attrs
      in
      match
        Policy.apply
          ?site:(Clause_cov.site ~node:t.node p.p_cfg.Config.export_map)
          (Config.export_policy t.cfg p.p_cfg)
          prefix attrs
      with
      | None -> None
      | Some attrs ->
          if not ebgp then Some attrs
          else
            Some
              { attrs with
                Attr.as_path = As_path.prepend t.cfg.Config.asn attrs.Attr.as_path;
                next_hop = address t }

(* One UPDATE per prefix: Sparrow never batches. *)
let push_export t (_addr, p) prefix =
  if p.p_phase = Up then begin
    let wanted =
      match Prefix_trie.find prefix t.loc with
      | Some chosen -> export_attrs t p prefix chosen
      | None -> None
    in
    let current = Prefix_trie.find prefix p.p_out in
    match (wanted, current) with
    | None, None -> ()
    | None, Some _ ->
        set_out t p prefix None;
        send t p.p_cfg.Config.addr (Msg.update ~withdrawn:[ prefix ] ())
    | Some a, Some b when Attr.equal a b -> ()
    | Some a, (Some _ | None) ->
        set_out t p prefix (Some a);
        send t p.p_cfg.Config.addr (Msg.update ~attrs:(Some a) ~nlri:[ prefix ] ())
  end

let reselect t prefix =
  let before = Prefix_trie.find prefix t.loc in
  let after = select t prefix in
  if before <> after then begin
    set_loc t prefix after;
    trace t "loc-rib" (fun () -> Rib.loc_event prefix (Option.map (route_of t) after));
    List.iter (fun entry -> push_export t entry prefix) t.peers
  end

let full_table_to t addr =
  match peer_of t addr with
  | None -> ()
  | Some p ->
      Prefix_trie.fold (fun prefix _ () -> push_export t (addr, p) prefix) t.loc ()

(* ------------------------------------------------------------------ *)
(* Import                                                              *)
(* ------------------------------------------------------------------ *)

let crash_check t (attrs : Attr.t) =
  match t.bugs.Router.crash_community with
  | Some c when Attr.has_community c attrs ->
      raise
        (Router.Crash
           (Printf.sprintf "sparrow community module crash on %s" (Community.to_string c)))
  | Some _ | None -> ()

let handle_update t (p : peer) (u : Msg.update) =
  Netsim.Stats.incr t.stats "rx_update";
  List.iter
    (fun prefix ->
      set_in t p prefix None;
      reselect t prefix)
    u.Msg.withdrawn;
  match (u.Msg.attrs, u.Msg.nlri) with
  | Some attrs, (_ :: _ as nlri) ->
      crash_check t attrs;
      let ebgp = not (is_ibgp t p) in
      let attrs = if ebgp then { attrs with Attr.local_pref = None } else attrs in
      List.iter
        (fun prefix ->
          set_in t p prefix
            (Policy.apply
               ?site:(Clause_cov.site ~node:t.node p.p_cfg.Config.import_map)
               (Config.import_policy t.cfg p.p_cfg)
               prefix attrs);
          reselect t prefix)
        nlri
  | _, _ -> ()

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let open_msg t =
  Msg.Open
    { version = 4; my_as = t.cfg.Config.asn; hold_time = t.cfg.Config.hold_time;
      bgp_id = t.cfg.Config.router_id }

let cancel_opt = function
  | Some tm -> Netsim.Engine.cancel tm
  | None -> ()

(* Hold watchdog, re-greet loop and the session phases are mutually
   recursive: greeting arms the watchdog, the watchdog tears the session
   down, teardown starts the re-greet loop, the loop greets again. *)
let rec arm_hold t (p : peer) =
  if t.liveness && t.cfg.Config.hold_time > 0 then begin
    cancel_opt p.p_hold;
    p.p_hold <-
      Some
        (Netsim.Engine.schedule t.eng
           ~after:(Netsim.Time.span_sec (float_of_int t.cfg.Config.hold_time))
           (fun () ->
             if p.p_phase <> Down then begin
               Netsim.Stats.incr t.stats "hold_expired";
               session_down t p.p_cfg.Config.addr p ~reason:"hold timer expired"
             end))
  end

and greet t (p : peer) =
  if not p.p_sent_open then begin
    p.p_sent_open <- true;
    p.p_phase <- Greeting;
    send t p.p_cfg.Config.addr (open_msg t);
    (* A peer that never answers must not leave us greeting forever. *)
    arm_hold t p
  end

and session_up t addr (p : peer) =
  if p.p_phase <> Up then begin
    p.p_phase <- Up;
    cancel_opt p.p_retry;
    p.p_retry <- None;
    Netsim.Stats.incr t.stats "session_up";
    trace t "session" (fun () -> "up " ^ Ipv4.to_string addr);
    full_table_to t addr;
    (* Periodic keepalives so FSM-based peers do not expire their hold
       timers. *)
    if t.liveness then begin
      let rec tick () =
        if p.p_phase = Up then begin
          send t addr Msg.keepalive;
          ignore (Netsim.Engine.schedule t.eng ~after:(Netsim.Time.span_sec 20.) tick)
        end
      in
      ignore (Netsim.Engine.schedule t.eng ~after:(Netsim.Time.span_sec 20.) tick)
    end
  end

and session_down t addr (p : peer) ~reason =
  Netsim.Stats.incr t.stats "session_down";
  trace t "session" (fun () ->
      Printf.sprintf "down %s: %s" (Ipv4.to_string addr) reason);
  p.p_phase <- Down;
  p.p_sent_open <- false;
  p.p_got_open <- false;
  cancel_opt p.p_hold;
  p.p_hold <- None;
  let lost = Prefix_trie.fold (fun prefix _ acc -> prefix :: acc) p.p_in [] in
  p.p_in <- Prefix_trie.empty;
  p.p_out <- Prefix_trie.empty;
  t.view <- Rib.drop_peer addr t.view;
  List.iter (reselect t) lost;
  (* Reactive retry: keep re-greeting until the peer answers (it may be
     down for a while).  One loop per peer; a fresh session_down resets
     it. *)
  if t.liveness then begin
    cancel_opt p.p_retry;
    let rec retry () =
      if p.p_phase <> Up then begin
        p.p_sent_open <- false;
        p.p_got_open <- false;
        greet t p;
        p.p_retry <-
          Some (Netsim.Engine.schedule t.eng ~after:(Netsim.Time.span_sec 15.) retry)
      end
      else p.p_retry <- None
    in
    p.p_retry <-
      Some (Netsim.Engine.schedule t.eng ~after:(Netsim.Time.span_sec 15.) retry)
  end

let handle_msg t addr (p : peer) = function
  | Msg.Open o ->
      if o.Msg.my_as <> p.p_cfg.Config.remote_as then begin
        send t addr
          (Msg.Notification
             { code = Msg.Error.open_message; subcode = Msg.Error.bad_peer_as; data = "" });
        session_down t addr p ~reason:"bad peer AS"
      end
      else begin
        p.p_got_open <- true;
        greet t p;
        send t addr Msg.keepalive
      end
  | Msg.Keepalive -> if p.p_sent_open && p.p_got_open then session_up t addr p
  | Msg.Update u ->
      (* Lenient: Sparrow processes UPDATEs as soon as the greeting
         completed, and silently ignores truly early ones. *)
      if p.p_phase <> Down then handle_update t p u
  | Msg.Notification _ -> session_down t addr p ~reason:"notification received"

let process_raw t ~from_node raw =
  let addr = Router.addr_of_node from_node in
  match peer_of t addr with
  | None -> Netsim.Stats.incr t.stats "rx_unknown_peer"
  | Some p -> (
      let crash_check (e : Wire.error) =
        if Wire.is_codec_crash e then raise (Router.Crash e.Wire.reason);
        if t.bugs.Router.fragile_decode then
          raise (Router.Crash (Printf.sprintf "fragile decode: %s" e.Wire.reason))
      in
      let reject (e : Wire.error) =
        Netsim.Stats.incr t.stats "rx_malformed";
        send t addr
          (Msg.Notification { code = e.Wire.code; subcode = e.Wire.subcode; data = "" });
        session_down t addr p ~reason:"malformed message"
      in
      match Wire.decode_graceful raw with
      | Wire.Msg msg ->
          Netsim.Stats.incr t.stats ("rx_" ^ String.lowercase_ascii (Msg.kind msg));
          handle_msg t addr p msg;
          (* Any message from a live peer resets the hold watchdog. *)
          if p.p_phase <> Down then arm_hold t p
      | Wire.Treat_as_withdraw { withdrawn; nlri; err } ->
          crash_check err;
          if p.p_phase <> Down then begin
            (* RFC 7606, same as Router: unusable attributes, known
               prefixes — withdraw them all, keep the session. *)
            Netsim.Stats.incr t.stats "rx_treat_as_withdraw";
            handle_update t p
              { Msg.withdrawn = withdrawn @ nlri; attrs = None; nlri = [] };
            arm_hold t p
          end
          else reject err
      | Wire.Reset err ->
          crash_check err;
          reject err)

let inject_update t ~from u =
  match peer_of t from with
  | None -> invalid_arg "Sparrow.inject_update: unknown peer"
  | Some p -> handle_update t p u

let start t = List.iter (fun (_, p) -> greet t p) t.peers

(* One row of a captured peer table: the session's config, phase and
   tables.  Timers are not captured, and a restored session that is
   not down has both sent and received its OPEN. *)
type row = Config.neighbor * phase * Attr.t Prefix_trie.t * Attr.t Prefix_trie.t

let peer_of_row ((n, phase, p_in, p_out) : row) =
  let greeted = phase <> Down in
  ( n.Config.addr,
    { p_cfg = n; p_phase = phase; p_sent_open = greeted; p_got_open = greeted;
      p_in; p_out; p_hold = None; p_retry = None } )

type image = {
  im_cfg : Config.t;
  im_loc : (Attr.t * Ipv4.t) Prefix_trie.t;
  im_view : Rib.t;
  im_peers : row list;
}

(* A speaker in the state [image] holds, not yet on the network. *)
let of_image ~liveness ~bugs ~net ~node image =
  { node; cfg = image.im_cfg; net; eng = Netsim.Network.engine net;
    peers = List.map peer_of_row image.im_peers;
    loc = image.im_loc;
    view = image.im_view;
    stats = Netsim.Stats.create ();
    bugs;
    liveness }

let attach t =
  Netsim.Network.set_handler t.net t.node (fun ~src raw -> process_raw t ~from_node:src raw)

let create ~net ~node cfg =
  let t =
    of_image ~liveness:true ~bugs:Router.no_bugs ~net ~node
      { im_cfg = cfg; im_loc = Prefix_trie.empty; im_view = Rib.empty;
        im_peers =
          List.map
            (fun n -> (n, Down, Prefix_trie.empty, Prefix_trie.empty))
            cfg.Config.neighbors }
  in
  attach t;
  List.iter (reselect t) cfg.Config.networks;
  t

(* ------------------------------------------------------------------ *)
(* Rib view and speaker wrapping                                       *)
(* ------------------------------------------------------------------ *)

let build_view t =
  let rib =
    Prefix_trie.fold
      (fun prefix chosen rib -> Rib.loc_set prefix (route_of t chosen) rib)
      t.loc Rib.empty
  in
  List.fold_left
    (fun rib (addr, p) ->
      let source = source_of t addr in
      let rib =
        Prefix_trie.fold
          (fun prefix attrs rib -> Rib.adj_in_set addr prefix { Rib.attrs; source } rib)
          p.p_in rib
      in
      Prefix_trie.fold (Rib.adj_out_set addr) p.p_out rib)
    rib t.peers

let rib_view t = t.view

(* Held routes are not run through the maps again (see [speaker] in
   the interface).  A neighbor the new config removes is told Cease,
   taken down under the old config and forgotten, its re-greet loop
   stopped.  The view is rebuilt, since a new AS number changes which
   sessions are eBGP, and every network of either config is reselected,
   so a dropped one is withdrawn. *)
let set_config t cfg =
  let removed, kept =
    List.partition (fun (addr, _) -> Config.find_neighbor cfg addr = None) t.peers
  in
  List.iter
    (fun (addr, p) ->
      if p.p_phase <> Down then
        send t addr (Msg.Notification { code = Msg.Error.cease; subcode = 0; data = "" });
      session_down t addr p ~reason:"neighbor removed";
      cancel_opt p.p_retry;
      p.p_retry <- None)
    removed;
  t.peers <- kept;
  let dropped =
    List.filter
      (fun prefix -> not (List.exists (Prefix.equal prefix) cfg.Config.networks))
      t.cfg.Config.networks
  in
  t.cfg <- cfg;
  t.view <- build_view t;
  List.iter (reselect t) (cfg.Config.networks @ dropped)

(* Peers are listed in configuration order, which never changes; the
   tries are canonical, so they marshal alike exactly when equal. *)
let digest_of ~cfg ~bugs ~liveness ~loc peers =
  Digest.string
    (Marshal.to_string
       ( (cfg, bugs, liveness),
         loc,
         List.map
           (fun (a, p) -> (a, p.p_phase, p.p_sent_open, p.p_got_open, p.p_in, p.p_out))
           peers )
       [ Marshal.No_sharing ])

let digest t = digest_of ~cfg:t.cfg ~bugs:t.bugs ~liveness:t.liveness ~loc:t.loc t.peers

let rec speaker t =
  { Speaker.sp_node = t.node;
    sp_impl = "sparrow";
    sp_config = (fun () -> t.cfg);
    sp_set_config = set_config t;
    sp_rib = (fun () -> t.view);
    sp_bugs = (fun () -> t.bugs);
    sp_set_bugs = (fun b -> t.bugs <- b);
    sp_start = (fun () -> start t);
    sp_established = (fun () -> established_peers t);
    sp_process_raw = (fun ~from_node raw -> process_raw t ~from_node raw);
    sp_inject_update = (fun ~from u -> inject_update t ~from u);
    sp_stats = (fun () -> t.stats);
    sp_digest = (fun () -> digest t);
    sp_capture = (fun () -> capture t) }

(* A respawn is a shadow speaker made from the image: there is no
   local network to install, the image holds the outcome. *)
and capture t =
  let image =
    { im_cfg = t.cfg; im_loc = t.loc; im_view = t.view;
      im_peers = List.map (fun (_, p) -> (p.p_cfg, p.p_phase, p.p_in, p.p_out)) t.peers }
  in
  let node = t.node and cap_bugs = t.bugs in
  { Speaker.cap_node = node;
    cap_impl = "sparrow";
    cap_config = image.im_cfg;
    cap_bugs;
    cap_rib = image.im_view;
    cap_digest =
      Speaker.once (fun () ->
          digest_of ~cfg:image.im_cfg ~bugs:cap_bugs ~liveness:false ~loc:image.im_loc
            (List.map peer_of_row image.im_peers));
    cap_respawn =
      (fun ~net ~bugs ->
        let clone = of_image ~liveness:false ~bugs ~net ~node image in
        attach clone;
        speaker clone) }
