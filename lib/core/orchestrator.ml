type exn_info = { ei_exn : string; ei_backtrace : string }

type round_outcome =
  | Ok of Explorer.exploration
  | Degraded of Explorer.exploration * string
  | Failed of exn_info

type round = {
  rd_index : int;
  rd_node : int;
  rd_started_at : Netsim.Time.t;
  rd_outcome : round_outcome;
}

let round_exploration r =
  match r.rd_outcome with
  | Ok x | Degraded (x, _) -> Some x
  | Failed _ -> None

type quarantine_event = {
  q_node : int;
  q_round : int;  (** round index whose failure triggered it *)
  q_strikes : int;
  q_until_round : int;  (** first round index the node is eligible again *)
}

type summary = {
  rounds : round list;
  faults : Fault.t list;
  signatures : (Signature.t * int) list;
  first_detection : (Fault.fault_class * Netsim.Time.t * int) list;
  total_inputs : int;
  total_shadow_runs : int;
  total_wall_seconds : float;
  ok_rounds : int;
  degraded_rounds : int;
  failed_rounds : int;
  quarantines : quarantine_event list;
  leaked_snapshots : int;
}

let summarize ?(quarantines = []) ?(leaked_snapshots = 0) ?(live_faults = []) ~graph
    rounds =
  let explorations = List.filter_map round_exploration rounds in
  let faults =
    Fault.dedupe
      (live_faults @ List.concat_map (fun x -> x.Explorer.x_faults) explorations)
  in
  (* A live fault (e.g. a router dying on mangled traffic) happens
     between explorations; attribute it to the round in progress at
     its detection time. *)
  let round_of_time at =
    let n =
      List.fold_left
        (fun n r ->
          if Netsim.Time.(r.rd_started_at <= at) then max n (r.rd_index + 1) else n)
        0 rounds
    in
    max 1 n
  in
  (* Signature-keyed detection aggregation: every report of every round
     collapses onto its stable fingerprint, carrying a hit count and
     the earliest detection (time, round).  [first_detection] is the
     per-class projection of this table. *)
  let by_sig : (string, Signature.t * int * Netsim.Time.t * int) Hashtbl.t =
    Hashtbl.create 32
  in
  let sig_order = ref [] in
  let consider ~round (f : Fault.t) =
    let sg = Signature.of_fault ~graph f in
    let key = Signature.to_string sg in
    match Hashtbl.find_opt by_sig key with
    | None ->
        Hashtbl.add by_sig key (sg, 1, f.Fault.f_detected_at, round);
        sig_order := key :: !sig_order
    | Some (sg, n, t, r) ->
        let t, r =
          if Netsim.Time.(f.Fault.f_detected_at < t) then
            (f.Fault.f_detected_at, round)
          else (t, r)
        in
        Hashtbl.replace by_sig key (sg, n + 1, t, r)
  in
  List.iter
    (fun r ->
      match round_exploration r with
      | None -> ()
      | Some x ->
          List.iter (consider ~round:(r.rd_index + 1)) x.Explorer.x_faults)
    rounds;
  List.iter
    (fun (f : Fault.t) ->
      consider ~round:(round_of_time f.Fault.f_detected_at) f)
    live_faults;
  let sig_entries =
    List.rev_map (fun key -> Hashtbl.find by_sig key) !sig_order
  in
  let signatures = List.map (fun (sg, n, _, _) -> (sg, n)) sig_entries in
  let first_detection =
    List.fold_left
      (fun acc (sg, _, t, r) ->
        let cls = sg.Signature.sg_class in
        match List.assoc_opt cls acc with
        | Some (t0, _) when Netsim.Time.(t0 <= t) -> acc
        | Some _ | None -> (cls, (t, r)) :: List.remove_assoc cls acc)
      [] sig_entries
    |> List.map (fun (c, (t, n)) -> (c, t, n))
    |> List.sort (fun (_, t1, _) (_, t2, _) -> Netsim.Time.compare t1 t2)
  in
  let count pred = List.length (List.filter pred rounds) in
  let sum f = List.fold_left (fun a x -> a + f x) 0 explorations in
  { rounds;
    faults;
    signatures;
    first_detection;
    total_inputs = sum (fun x -> x.Explorer.x_inputs);
    total_shadow_runs = sum (fun x -> x.Explorer.x_shadow_runs);
    total_wall_seconds =
      List.fold_left (fun a x -> a +. x.Explorer.x_wall_seconds) 0. explorations;
    ok_rounds = count (fun r -> match r.rd_outcome with Ok _ -> true | _ -> false);
    degraded_rounds =
      count (fun r -> match r.rd_outcome with Degraded _ -> true | _ -> false);
    failed_rounds =
      count (fun r -> match r.rd_outcome with Failed _ -> true | _ -> false);
    quarantines;
    leaked_snapshots }

let make_cut build =
  Snapshot.Cut.create
    ~speakers:(fun id -> Topology.Build.speaker build id)
    build.Topology.Build.net

(* A router that died on live traffic (e.g. mangled bytes) and was
   absorbed by the network's crash policy is a first-class
   programming-error detection, not an infrastructure hiccup. *)
let live_crash_faults build =
  List.map
    (fun (c : Netsim.Network.crash) ->
      Fault.make ~at:c.Netsim.Network.cr_at ~node:c.Netsim.Network.cr_node
        ~property:"node-crash" Fault.Programming_error
        (Printf.sprintf "handler died on message from node %d: %s"
           c.Netsim.Network.cr_src c.Netsim.Network.cr_exn))
    (Netsim.Network.crashes build.Topology.Build.net)

let m_rounds_ok = lazy (Telemetry.Metrics.counter "orchestrator.rounds_ok")
let m_rounds_degraded = lazy (Telemetry.Metrics.counter "orchestrator.rounds_degraded")
let m_rounds_failed = lazy (Telemetry.Metrics.counter "orchestrator.rounds_failed")
let m_quarantines = lazy (Telemetry.Metrics.counter "orchestrator.quarantines")
let m_leaked = lazy (Telemetry.Metrics.gauge "orchestrator.leaked_snapshots")

let outcome_label = function
  | Ok _ -> "ok"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

let note_outcome outcome =
  Telemetry.Metrics.incr
    (Lazy.force
       (match outcome with
       | Ok _ -> m_rounds_ok
       | Degraded _ -> m_rounds_degraded
       | Failed _ -> m_rounds_failed))

(* Timestamps in the artifact come from simulated time: runs replay
   bit-identically for a given seed whatever the host. *)
let install_clock build =
  let eng = build.Topology.Build.engine in
  Telemetry.set_clock (fun () -> Netsim.Time.to_us (Netsim.Engine.now eng))

(* One supervised round: the exploration runs under exception
   containment, and the live system advances by [interval] afterwards
   whatever the outcome — a crashing explorer must not stall the
   deployment or the remaining rounds. *)
let one_round ~params ~build ~cut ~gt ~interval ~index node =
  Telemetry.with_span "round"
    ~attrs:[ ("index", Telemetry.Json.Int index);
             ("node", Telemetry.Json.Int node) ]
  @@ fun rsp ->
  let started_at = Netsim.Engine.now build.Topology.Build.engine in
  let outcome =
    match Explorer.explore_node ?params ~build ~cut ~gt ~node () with
    | x ->
        if x.Explorer.x_partial then
          Degraded
            ( x,
              Printf.sprintf "partial cut: %d channel(s) never closed"
                (List.length x.Explorer.x_stalled) )
        else Ok x
    | exception e ->
        Failed
          { ei_exn = Printexc.to_string e;
            ei_backtrace = Printexc.get_backtrace () }
  in
  note_outcome outcome;
  Telemetry.add_attr rsp
    [ ("outcome", Telemetry.Json.String (outcome_label outcome)) ];
  Topology.Build.run_for build interval;
  { rd_index = index; rd_node = node; rd_started_at = started_at;
    rd_outcome = outcome }

(* The strike/backoff policy itself lives in {!Supervise} (the campaign
   driver reuses it for scenario templates, with its own strikes); the
   orchestrator takes its defaults and keeps the node mapping and the
   telemetry side effects. *)
type sched = {
  s_nodes : int array;
  s_strikes : Supervise.t;
  mutable s_events : quarantine_event list;
}

let sched_make nodes =
  let s_nodes = Array.of_list nodes in
  { s_nodes; s_strikes = Supervise.create (Array.length s_nodes); s_events = [] }

(* Quarantine expirations become first-class telemetry records the
   moment they take effect — the cascade stitcher pairs them with the
   quarantine records to spot ping-pong without guessing at backoff
   arithmetic. *)
let sched_release s i =
  List.iter
    (fun idx ->
      Telemetry.sys_event ~kind:"unquarantine" ~nodes:[ s.s_nodes.(idx) ]
        ~detail:(Printf.sprintf "eligible again at round %d" (i + 1))
        ())
    (Supervise.release_due s.s_strikes ~step:i)

(* Round-robin with quarantine skipping: start at the scheduled slot and
   take the first healthy node; if everyone is quarantined, run the
   scheduled node anyway (the system must keep testing). *)
let sched_pick s i =
  let n = Array.length s.s_nodes in
  let rec probe k = if k >= n then i mod n
    else
      let idx = (i + k) mod n in
      if Supervise.quarantined s.s_strikes ~slot:idx ~step:i then probe (k + 1)
      else idx
  in
  probe 0

let sched_record s ~round_index ~slot outcome =
  let ok = match outcome with Ok _ | Degraded _ -> true | Failed _ -> false in
  match Supervise.record s.s_strikes ~slot ~step:round_index ~ok with
  | None -> ()
  | Some q ->
      Telemetry.Metrics.incr (Lazy.force m_quarantines);
      Telemetry.sys_event ~kind:"quarantine" ~nodes:[ s.s_nodes.(slot) ]
        ~detail:
          (Printf.sprintf "%d strikes at round %d, until round %d"
             q.Supervise.qu_strikes (round_index + 1) q.Supervise.qu_until)
        ();
      s.s_events <-
        { q_node = s.s_nodes.(slot); q_round = round_index;
          q_strikes = q.Supervise.qu_strikes;
          q_until_round = q.Supervise.qu_until }
        :: s.s_events

let node_list nodes build =
  match nodes with
  | Some l -> l
  | None -> Topology.Graph.node_ids build.Topology.Build.graph

(* The [?on_fault] hook fires once per newly-seen fault root, as soon
   as the round that detected it completes — this is where the triage
   layer plugs in auto-minimization and corpus filing without the core
   depending on it. *)
let make_notifier on_fault =
  match on_fault with
  | None -> fun _ -> ()
  | Some f ->
      let seen = Hashtbl.create 16 in
      fun faults ->
        List.iter
          (fun fault ->
            let k = Fault.root fault in
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              f fault
            end)
          faults

(* The [?until] stop rule: a round stops the run when its exploration
   or probe reported the class — or, for programming errors, when a
   live crash was absorbed during it.  Without [until] the rule is a
   constant and costs nothing per round. *)
let stop_rule until build =
  match until with
  | None -> fun _ _ -> false
  | Some cls ->
      let crashes () = List.length (Netsim.Network.crashes build.Topology.Build.net) in
      let seen = ref (crashes ()) in
      let has = List.exists (fun (f : Fault.t) -> f.Fault.f_class = cls) in
      fun explored probed ->
        let n = crashes () in
        let grew = n > !seen in
        seen := n;
        has explored || has probed || (grew && cls = Fault.Programming_error)

let run ?params ?(interval = Netsim.Time.span_sec 5.) ?nodes ?on_fault ?probe
    ?until ~build ~gt ~rounds () =
  let node_ids = node_list nodes build in
  if rounds > 0 && node_ids = [] then invalid_arg "Orchestrator.run: empty node list";
  install_clock build;
  let notify = make_notifier on_fault in
  let probed = ref [] in
  let poll () =
    match probe with
    | None -> []
    | Some p ->
        let pf = p () in
        probed := !probed @ pf;
        notify pf;
        pf
  in
  let stop = stop_rule until build in
  let sched = sched_make node_ids in
  let cut = make_cut build in
  let rec go i acc =
    if i >= rounds then List.rev acc
    else begin
      sched_release sched i;
      let slot = sched_pick sched i in
      let r =
        one_round ~params ~build ~cut ~gt ~interval ~index:i sched.s_nodes.(slot)
      in
      sched_record sched ~round_index:i ~slot r.rd_outcome;
      let explored =
        match round_exploration r with
        | Some x ->
            notify x.Explorer.x_faults;
            x.Explorer.x_faults
        | None -> []
      in
      if stop explored (poll ()) then List.rev (r :: acc) else go (i + 1) (r :: acc)
    end
  in
  let result = go 0 [] in
  Telemetry.Metrics.set (Lazy.force m_leaked) (Snapshot.Cut.active cut);
  let live_faults = live_crash_faults build in
  notify live_faults;
  summarize ~quarantines:(List.rev sched.s_events)
    ~leaked_snapshots:(Snapshot.Cut.active cut)
    ~live_faults:(live_faults @ !probed) ~graph:build.Topology.Build.graph result

let pp_outcome ppf = function
  | Ok _ -> Format.fprintf ppf "ok"
  | Degraded (_, why) -> Format.fprintf ppf "degraded (%s)" why
  | Failed e -> Format.fprintf ppf "FAILED: %s" e.ei_exn

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d rounds (%d ok, %d degraded, %d failed), %d inputs, %d shadow runs, %.2fs wall@ "
    (List.length s.rounds) s.ok_rounds s.degraded_rounds s.failed_rounds
    s.total_inputs s.total_shadow_runs s.total_wall_seconds;
  (let st = Concolic.Solver.stats () in
   let solves = st.Concolic.Solver.cache_hits + st.Concolic.Solver.cache_misses in
   if solves > 0 then
     Format.fprintf ppf "solver cache: %d/%d hits (%.0f%%)@ "
       st.Concolic.Solver.cache_hits solves
       (100. *. float_of_int st.Concolic.Solver.cache_hits /. float_of_int solves));
  (let mangled, dropped, duplicated, _passed = Netsim.Mangler.totals () in
   if mangled + dropped + duplicated > 0 then begin
     Format.fprintf ppf "adversary: %d message(s) mangled, %d dropped, %d duplicated"
       mangled dropped duplicated;
     (match Netsim.Mangler.kind_counts () with
     | [] -> ()
     | kinds ->
         Format.fprintf ppf " (%s)"
           (String.concat ", "
              (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) kinds)));
     Format.fprintf ppf "@ "
   end);
  List.iter
    (fun q ->
      Format.fprintf ppf "quarantined node %d after round %d (until round %d)@ "
        q.q_node (q.q_round + 1) q.q_until_round)
    s.quarantines;
  if s.leaked_snapshots > 0 then
    Format.fprintf ppf "WARNING: %d snapshot(s) still active@ " s.leaked_snapshots;
  List.iter (fun f -> Format.fprintf ppf "%a@ " Fault.pp f) s.faults;
  List.iter
    (fun (sg, hits) ->
      Format.fprintf ppf "signature %a (x%d)@ " Signature.pp sg hits)
    s.signatures;
  Format.fprintf ppf "@]"
