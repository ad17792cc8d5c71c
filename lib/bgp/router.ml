type state = { rib : Rib.t; sessions : Fsm.t Ipv4.Map.t }

type bugs = {
  skip_loop_check : bool;
  invert_med : bool;
  crash_community : Community.t option;
  prepend_overflow : bool;
  fragile_decode : bool;
}

let no_bugs =
  { skip_loop_check = false; invert_med = false; crash_community = None;
    prepend_overflow = false; fragile_decode = false }

exception Crash of string

type peer_timers = {
  mutable hold : Netsim.Engine.timer option;
  mutable keepalive : Netsim.Engine.timer option;
  mutable connect : Netsim.Engine.timer option;
  mutable restart : Netsim.Engine.timer option;
}

type t = {
  node : int;
  mutable cfg : Config.t;
  net : string Netsim.Network.t;
  eng : Netsim.Engine.t;
  mutable st : state;
  timers : (Ipv4.t, peer_timers) Hashtbl.t;
  stats : Netsim.Stats.t;
  mutable bug_flags : bugs;
  liveness : bool;
      (* hold and keepalive timers, and a restart after a session
         drops: on for a live router, off for a shadow clone *)
}

(* Simulated TCP handshake time before a started session connects. *)
let connect_delay = Netsim.Time.span_ms 50

let addr_of_node n =
  if n < 0 || n > 0x00FF_FFFE then invalid_arg "Router.addr_of_node: node out of range";
  Ipv4.of_int32_exn (0x0A00_0000 lor (n + 1))

let node_of_addr a =
  let v = Ipv4.to_int a in
  if v lsr 24 <> 10 then invalid_arg "Router.node_of_addr: not a router address";
  (v land 0x00FF_FFFF) - 1

let node t = t.node
let address t = addr_of_node t.node
let config t = t.cfg
let state t = t.st
let rib t = t.st.rib
let loc_rib t = t.st.rib.Rib.loc
let stats t = t.stats
let bugs t = t.bug_flags
let set_bugs t b = t.bug_flags <- b

let session_state t peer =
  Option.map (fun (f : Fsm.t) -> f.Fsm.state) (Ipv4.Map.find_opt peer t.st.sessions)

let established_peers t =
  Ipv4.Map.fold
    (fun peer (f : Fsm.t) acc ->
      if f.Fsm.state = Fsm.Established then peer :: acc else acc)
    t.st.sessions []
  |> List.rev

let timers_of t peer =
  match Hashtbl.find_opt t.timers peer with
  | Some x -> x
  | None ->
      let x = { hold = None; keepalive = None; connect = None; restart = None } in
      Hashtbl.add t.timers peer x;
      x

let cancel_timer = function
  | Some timer -> Netsim.Engine.cancel timer
  | None -> ()

let fsm_config t (n : Config.neighbor) : Fsm.config =
  { my_as = t.cfg.Config.asn; bgp_id = t.cfg.Config.router_id;
    hold_time = t.cfg.Config.hold_time; peer_as = n.Config.remote_as }

let session t peer =
  Option.value (Ipv4.Map.find_opt peer t.st.sessions) ~default:(Fsm.create ())

(* [Map.add] returns the map itself when the peer is already bound to
   [fsm], so a session an event left as it was keeps [t.st], and with
   it the speaker's last capture. *)
let set_session t peer fsm =
  let sessions = Ipv4.Map.add peer fsm t.st.sessions in
  if sessions != t.st.sessions then t.st <- { t.st with sessions }

let is_ibgp t (n : Config.neighbor) = n.Config.remote_as = t.cfg.Config.asn

let trace t kind f = Netsim.Network.emit_lazy t.net ~node:t.node ~kind f

(* ------------------------------------------------------------------ *)
(* Export path                                                         *)
(* ------------------------------------------------------------------ *)

(* Mandatory eBGP transformations around the export route map: the
   AS-internal attributes (LOCAL_PREF, inherited MED) are stripped
   before the map runs, so a map that sets a MED for the neighbor still
   takes effect; prepending our AS and rewriting NEXT_HOP happen
   after. *)
(* The prepend-overflow bug: the prepend repeat count is stored in an
   8-bit field, so a count of 256 silently becomes 0. *)
let effective_policy t policy =
  if not t.bug_flags.prepend_overflow then policy
  else
    List.map
      (fun (e : Policy.entry) ->
        { e with
          Policy.sets =
            List.map
              (function
                | Policy.Prepend_as (asn, n) -> Policy.Prepend_as (asn, n land 0xFF)
                | s -> s)
              e.Policy.sets })
      policy

let export_for t (n : Config.neighbor) prefix (route : Rib.route) =
  if Attr.has_community Community.no_advertise route.attrs then None
  else if
    (* Do not advertise a route back to the peer it was learned from. *)
    Ipv4.equal route.source.Rib.peer_addr n.Config.addr
  then None
  else if
    (* No iBGP-to-iBGP reflection. *)
    (not route.source.Rib.ebgp) && (not (Rib.is_local route)) && is_ibgp t n
  then None
  else
    let ebgp = not (is_ibgp t n) in
    (* NO_EXPORT binds the AS that *received* the tagged route: it is
       checked against the imported attributes, so an egress policy that
       adds the tag still announces the route (tag included). *)
    if ebgp && Attr.has_community Community.no_export route.attrs then None
    else
    let attrs =
      if ebgp then { route.attrs with Attr.local_pref = None; med = None }
      else route.attrs
    in
    match
      Policy.apply
        ?site:(Clause_cov.site ~node:t.node n.Config.export_map)
        (effective_policy t (Config.export_policy t.cfg n))
        prefix attrs
    with
    | None -> None
    | Some attrs ->
        if not ebgp then Some attrs
        else
          let attrs =
            { attrs with
              Attr.as_path = As_path.prepend t.cfg.Config.asn attrs.Attr.as_path }
          in
          Some { attrs with Attr.next_hop = address t }

(* The [stats] counter of each message kind, sent and received. *)
let tx_key = function
  | Msg.Open _ -> "tx_open"
  | Msg.Update _ -> "tx_update"
  | Msg.Notification _ -> "tx_notification"
  | Msg.Keepalive -> "tx_keepalive"

let rx_key = function
  | Msg.Open _ -> "rx_open"
  | Msg.Update _ -> "rx_update"
  | Msg.Notification _ -> "rx_notification"
  | Msg.Keepalive -> "rx_keepalive"

let send_msg t peer msg =
  let dst = node_of_addr peer in
  Netsim.Stats.incr t.stats (tx_key msg);
  Netsim.Network.send t.net ~src:t.node ~dst (Wire.encode msg)

(* Group (prefix, attrs) pairs sharing identical attributes into one
   UPDATE each, plus one UPDATE carrying all withdrawals. *)
let flush_exports t peer ~announce ~withdraw =
  if withdraw <> [] then
    send_msg t peer (Msg.update ~withdrawn:withdraw ());
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (p, attrs) ->
      let key = attrs in
      let cur = Option.value (Hashtbl.find_opt groups key) ~default:[] in
      Hashtbl.replace groups key (p :: cur))
    announce;
  Hashtbl.iter
    (fun attrs prefixes ->
      send_msg t peer (Msg.update ~attrs:(Some attrs) ~nlri:(List.rev prefixes) ()))
    groups

(* Re-evaluate Adj-RIB-Out for [prefixes] toward every Established peer
   and emit the diffs. *)
let update_exports t prefixes =
  List.iter
    (fun peer ->
      match Config.find_neighbor t.cfg peer with
      | None -> ()
      | Some n ->
          let announce = ref [] and withdraw = ref [] in
          List.iter
            (fun prefix ->
              let wanted =
                match Rib.loc_get prefix t.st.rib with
                | Some route -> export_for t n prefix route
                | None -> None
              in
              let current = Rib.adj_out_get peer prefix t.st.rib in
              match (wanted, current) with
              | None, None -> ()
              | None, Some _ ->
                  t.st <- { t.st with rib = Rib.adj_out_del peer prefix t.st.rib };
                  withdraw := prefix :: !withdraw
              | Some attrs, Some cur when Attr.equal attrs cur -> ()
              | Some attrs, (Some _ | None) ->
                  t.st <- { t.st with rib = Rib.adj_out_set peer prefix attrs t.st.rib };
                  announce := (prefix, attrs) :: !announce)
            prefixes;
          if !announce <> [] || !withdraw <> [] then
            flush_exports t peer ~announce:!announce ~withdraw:!withdraw)
    (established_peers t)

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)
(* ------------------------------------------------------------------ *)

let local_route t prefix =
  if List.exists (Prefix.equal prefix) t.cfg.Config.networks then
    Some
      { Rib.attrs = Attr.make ~origin:Attr.Igp ~next_hop:(address t) ();
        source = Rib.local_source }
  else None

let decision_config t : Decision.config =
  { always_compare_med = t.cfg.Config.always_compare_med }

let best_route t candidates =
  Decision.select (decision_config t) ~invert_med:t.bug_flags.invert_med
    candidates

let run_decision t prefixes =
  let changed = ref [] in
  List.iter
    (fun prefix ->
      let candidates =
        Rib.candidates prefix t.st.rib
        |> List.filter (fun (r : Rib.route) ->
               t.bug_flags.skip_loop_check
               || Decision.acceptable ~local_as:t.cfg.Config.asn r)
      in
      let candidates =
        match local_route t prefix with
        | Some r -> r :: candidates
        | None -> candidates
      in
      let best = best_route t candidates in
      let current = Rib.loc_get prefix t.st.rib in
      let same =
        match (best, current) with
        | None, None -> true
        | Some a, Some b -> a = b
        | Some _, None | None, Some _ -> false
      in
      if not same then begin
        (match best with
        | Some r -> t.st <- { t.st with rib = Rib.loc_set prefix r t.st.rib }
        | None -> t.st <- { t.st with rib = Rib.loc_del prefix t.st.rib });
        trace t "loc-rib" (fun () -> Rib.loc_event prefix best);
        changed := prefix :: !changed
      end)
    prefixes;
  if !changed <> [] then update_exports t !changed

(* ------------------------------------------------------------------ *)
(* Import path                                                         *)
(* ------------------------------------------------------------------ *)

let check_crash_bug t (attrs : Attr.t) =
  match t.bug_flags.crash_community with
  | Some c when Attr.has_community c attrs ->
      raise (Crash (Printf.sprintf "community handler crash on %s" (Community.to_string c)))
  | Some _ | None -> ()

let import_route t (n : Config.neighbor) prefix (attrs : Attr.t) =
  check_crash_bug t attrs;
  let ebgp = not (is_ibgp t n) in
  (* RFC 4271: LOCAL_PREF received over eBGP must be ignored. *)
  let attrs = if ebgp then { attrs with Attr.local_pref = None } else attrs in
  match
    Policy.apply
      ?site:(Clause_cov.site ~node:t.node n.Config.import_map)
      (effective_policy t (Config.import_policy t.cfg n))
      prefix attrs
  with
  | None -> None
  | Some attrs ->
      Some
        { Rib.attrs;
          source =
            { Rib.peer_addr = n.Config.addr; peer_as = n.Config.remote_as;
              peer_bgp_id =
                Option.value (session t n.Config.addr).Fsm.peer_bgp_id
                  ~default:n.Config.addr;
              ebgp; igp_metric = 0 } }

let process_update t (n : Config.neighbor) (u : Msg.update) =
  Netsim.Stats.incr t.stats "rx_update";
  let peer = n.Config.addr in
  (* Dirty-prefix worklist: only prefixes whose candidate set actually
     changed reach the decision process.  [seen] (a prefix trie used as
     a set) dedups within the message without the old quadratic
     [List.exists] scan. *)
  let dirty = ref [] in
  let seen = ref Prefix_trie.empty in
  let apply p route =
    let rib, changed = Rib.adj_in_update peer p route t.st.rib in
    if changed then begin
      t.st <- { t.st with rib };
      if Prefix_trie.find p !seen = None then begin
        seen := Prefix_trie.add p () !seen;
        dirty := p :: !dirty
      end
    end
  in
  List.iter (fun p -> apply p None) u.Msg.withdrawn;
  (match (u.Msg.attrs, u.Msg.nlri) with
  | Some attrs, (_ :: _ as nlri) ->
      List.iter (fun p -> apply p (import_route t n p attrs)) nlri
  | _, [] -> ()
  | None, _ :: _ ->
      (* Codec guarantees attrs for non-empty NLRI; defensive. *)
      ());
  if !dirty <> [] then run_decision t !dirty

(* ------------------------------------------------------------------ *)
(* Session management                                                  *)
(* ------------------------------------------------------------------ *)

let rec drive t (n : Config.neighbor) event =
  let peer = n.Config.addr in
  let before = session t peer in
  let after, actions = Fsm.handle (fsm_config t n) before event in
  set_session t peer after;
  if before.Fsm.state <> after.Fsm.state then
    trace t "fsm" (fun () ->
        Printf.sprintf "%s: %s -> %s" (Ipv4.to_string peer)
          (Fsm.state_to_string before.Fsm.state)
          (Fsm.state_to_string after.Fsm.state));
  List.iter (do_action t n) actions;
  rearm_timers t n before after

and do_action t (n : Config.neighbor) action =
  let peer = n.Config.addr in
  match action with
  | Fsm.Send msg -> send_msg t peer msg
  | Fsm.Start_connect ->
      let tm = timers_of t peer in
      cancel_timer tm.connect;
      tm.connect <-
        Some
          (Netsim.Engine.schedule t.eng ~after:connect_delay (fun () ->
               drive t n Fsm.Tcp_established))
  | Fsm.Session_up ->
      Netsim.Stats.incr t.stats "session_up";
      trace t "session" (fun () -> "up " ^ Ipv4.to_string peer);
      (* Advertise our Loc-RIB to the fresh peer. *)
      let announce =
        Prefix_trie.fold
          (fun prefix route acc ->
            match export_for t n prefix route with
            | Some attrs ->
                t.st <- { t.st with rib = Rib.adj_out_set peer prefix attrs t.st.rib };
                (prefix, attrs) :: acc
            | None -> acc)
          t.st.rib.Rib.loc []
      in
      if announce <> [] then flush_exports t peer ~announce ~withdraw:[]
  | Fsm.Session_down reason ->
      Netsim.Stats.incr t.stats "session_down";
      trace t "session" (fun () ->
          Printf.sprintf "down %s: %s" (Ipv4.to_string peer) reason);
      let lost = Rib.prefixes_from_peer peer t.st.rib in
      t.st <- { t.st with rib = Rib.drop_peer peer t.st.rib };
      run_decision t lost;
      if t.liveness then begin
        let tm = timers_of t peer in
        cancel_timer tm.restart;
        tm.restart <-
          Some
            (Netsim.Engine.schedule t.eng ~after:(Netsim.Time.span_sec 10.) (fun () ->
                 drive t n Fsm.Manual_start))
      end
  | Fsm.Deliver_update u -> process_update t n u

and rearm_timers t (n : Config.neighbor) before after =
  if not t.liveness then ()
  else begin
  let peer = n.Config.addr in
  let tm = timers_of t peer in
  let open Fsm in
  (* Hold timer: armed in OpenSent and beyond; re-armed by the caller on
     every received message. *)
  (match after.state with
  | OpenSent | OpenConfirm | Established -> ()
  | Idle | Connect | Active ->
      cancel_timer tm.hold;
      tm.hold <- None;
      cancel_timer tm.keepalive;
      tm.keepalive <- None);
  (* Entering OpenSent arms the hold timer immediately: a peer that
     never answers our OPEN (crashed, partitioned away) must tear the
     session down rather than leave it stuck in OpenSent forever. *)
  (match (before.state, after.state) with
  | (Idle | Connect | Active), OpenSent ->
      let hold = t.cfg.Config.hold_time in
      if hold > 0 then begin
        cancel_timer tm.hold;
        tm.hold <-
          Some
            (Netsim.Engine.schedule t.eng
               ~after:(Netsim.Time.span_sec (float_of_int hold))
               (fun () -> drive t n Fsm.Hold_timer_expired))
      end
  | _ -> ());
  (* Keepalive timer: periodic from OpenConfirm on. *)
  match (before.state, after.state) with
  | (Idle | Connect | Active | OpenSent), (OpenConfirm | Established) ->
      let interval = Fsm.keepalive_interval after in
      if interval > 0 then begin
        let rec tick () =
          let st = session t peer in
          match st.Fsm.state with
          | OpenConfirm | Established ->
              drive t n Keepalive_timer_expired;
              tm.keepalive <-
                Some
                  (Netsim.Engine.schedule t.eng
                     ~after:(Netsim.Time.span_sec (float_of_int interval))
                     tick)
          | Idle | Connect | Active | OpenSent -> ()
        in
        cancel_timer tm.keepalive;
        tm.keepalive <-
          Some
            (Netsim.Engine.schedule t.eng
               ~after:(Netsim.Time.span_sec (float_of_int interval))
               tick)
      end
  | _ -> ()
  end

let reset_hold_timer t (n : Config.neighbor) =
  if not t.liveness then ()
  else
  let peer = n.Config.addr in
  let st = session t peer in
  let hold =
    match st.Fsm.state with
    | Fsm.OpenSent -> t.cfg.Config.hold_time
    | Fsm.OpenConfirm | Fsm.Established -> st.Fsm.negotiated_hold
    | Fsm.Idle | Fsm.Connect | Fsm.Active -> 0
  in
  if hold > 0 then begin
    let tm = timers_of t peer in
    cancel_timer tm.hold;
    tm.hold <-
      Some
        (Netsim.Engine.schedule t.eng ~after:(Netsim.Time.span_sec (float_of_int hold))
           (fun () -> drive t n Fsm.Hold_timer_expired))
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let process_raw t ~from_node raw =
  let peer = addr_of_node from_node in
  match Config.find_neighbor t.cfg peer with
  | None -> Netsim.Stats.incr t.stats "rx_unknown_peer"
  | Some n -> (
      (* A decode that crashed (codec bug) is a programming error, not
         a protocol error: let it kill the router so the explorer (or
         the network's crash policy) detects it.  [fragile_decode]
         seeds the same class of bug artificially — the router dies on
         any malformed input instead of handling it. *)
      let crash_check (e : Wire.error) =
        if Wire.is_codec_crash e then raise (Crash e.Wire.reason);
        if t.bug_flags.fragile_decode then
          raise (Crash (Printf.sprintf "fragile decode: %s" e.Wire.reason))
      in
      let reject (e : Wire.error) =
        Netsim.Stats.incr t.stats "rx_malformed";
        trace t "decode-error" (fun () -> Format.asprintf "%a" Wire.pp_error e);
        send_msg t peer
          (Msg.Notification { code = e.Wire.code; subcode = e.Wire.subcode; data = "" });
        drive t n Fsm.Manual_stop
      in
      match Wire.decode_graceful raw with
      | Wire.Msg msg ->
          Netsim.Stats.incr t.stats (rx_key msg);
          drive t n (Fsm.Msg_received msg);
          reset_hold_timer t n
      | Wire.Treat_as_withdraw { withdrawn; nlri; err } ->
          crash_check err;
          if (session t peer).Fsm.state = Fsm.Established then begin
            (* RFC 7606: the attributes are unusable but the prefixes
               are known — withdraw them all and keep the session. *)
            Netsim.Stats.incr t.stats "rx_treat_as_withdraw";
            trace t "treat-as-withdraw" (fun () ->
                Format.asprintf "%a" Wire.pp_error err);
            process_update t n
              { Msg.withdrawn = withdrawn @ nlri; attrs = None; nlri = [] };
            reset_hold_timer t n
          end
          else
            (* An UPDATE outside Established is an FSM violation no
               matter how its attributes parse. *)
            reject err
      | Wire.Reset err ->
          crash_check err;
          reject err)

let inject_update t ~from u =
  match Config.find_neighbor t.cfg from with
  | None -> invalid_arg "Router.inject_update: unknown peer"
  | Some n -> process_update t n u

let make ~liveness ~bugs ~net ~node cfg st =
  let t =
    { node; cfg; net; eng = Netsim.Network.engine net; st;
      timers = Hashtbl.create 8; stats = Netsim.Stats.create ();
      bug_flags = bugs; liveness }
  in
  Netsim.Network.set_handler net node (fun ~src raw -> process_raw t ~from_node:src raw);
  t

let create ?(bugs = no_bugs) ~net ~node (cfg : Config.t) =
  let t =
    make ~liveness:true ~bugs ~net ~node cfg
      { rib = Rib.empty; sessions = Ipv4.Map.empty }
  in
  (* Install locally-originated networks. *)
  run_decision t cfg.Config.networks;
  t

let respawn ~bugs ~net ~node cfg st =
  make ~liveness:false ~bugs ~net ~node cfg st

let start t =
  List.iter (fun n -> drive t n Fsm.Manual_start) t.cfg.Config.neighbors

let stop_session t peer =
  match Config.find_neighbor t.cfg peer with
  | Some n -> drive t n Fsm.Manual_stop
  | None -> invalid_arg "Router.stop_session: unknown peer"

(* A neighbor the new config removes: its session stops as with
   [stop_session], under the old config, and neither a timer nor an
   FSM of it is left behind. *)
let remove_neighbor t (n : Config.neighbor) =
  let peer = n.Config.addr in
  drive t n Fsm.Manual_stop;
  (match Hashtbl.find_opt t.timers peer with
  | Some tm ->
      List.iter cancel_timer [ tm.hold; tm.keepalive; tm.connect; tm.restart ];
      Hashtbl.remove t.timers peer
  | None -> ());
  t.st <- { t.st with sessions = Ipv4.Map.remove peer t.st.sessions }

let set_config t cfg =
  List.iter
    (fun (n : Config.neighbor) ->
      if Config.find_neighbor cfg n.Config.addr = None then remove_neighbor t n)
    t.cfg.Config.neighbors;
  t.cfg <- cfg;
  (* Operator action: recompute everything our neighbors see. *)
  let cands = t.st.rib.Rib.cands in
  let all_prefixes =
    List.sort_uniq Prefix.compare
      (cfg.Config.networks @ Rib.loc_prefixes t.st.rib
      @ Prefix_trie.fold (fun p _ acc -> p :: acc) cands [])
  in
  (* Re-apply import policies to Adj-RIB-In under the new config; the
     peers that left it are dropped afterwards, once each. *)
  let gone =
    Prefix_trie.fold
      (fun prefix pm gone ->
        Ipv4.Map.fold
          (fun peer (r : Rib.route) gone ->
            match Config.find_neighbor cfg peer with
            | None -> Ipv4.Set.add peer gone
            | Some n ->
                (match import_route t n prefix r.Rib.attrs with
                | Some route ->
                    t.st <- { t.st with rib = Rib.adj_in_set peer prefix route t.st.rib }
                | None -> t.st <- { t.st with rib = Rib.adj_in_del peer prefix t.st.rib });
                gone)
          pm gone)
      cands Ipv4.Set.empty
  in
  Ipv4.Set.iter (fun peer -> t.st <- { t.st with rib = Rib.drop_peer peer t.st.rib }) gone;
  run_decision t all_prefixes;
  update_exports t all_prefixes

let restore t st = t.st <- st

(* Maps go in as key-ordered bindings: a balanced tree's shape depends
   on its insertion history, so equal maps need not marshal alike. *)
let digest_of ~cfg ~bugs ~liveness st =
  let rib = st.rib in
  Digest.string
    (Marshal.to_string
       ( (cfg, bugs, liveness),
         Prefix_trie.bindings rib.Rib.loc,
         Prefix_trie.fold
           (fun p pm acc -> (p, Ipv4.Map.bindings pm) :: acc)
           rib.Rib.cands [],
         Ipv4.Map.bindings (Ipv4.Map.map Prefix.Map.bindings rib.Rib.adj_out),
         Ipv4.Map.bindings st.sessions )
       [ Marshal.No_sharing ])

let digest t =
  digest_of ~cfg:t.cfg ~bugs:t.bug_flags ~liveness:t.liveness t.st

let respawn_digest ~bugs cfg st =
  digest_of ~cfg ~bugs ~liveness:false st
