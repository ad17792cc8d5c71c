type point = { pt_site : Policy.cov_site; pt_seq : int; pt_what : Policy.cov_point }

let what_rank : Policy.cov_point -> int = function
  | Cov_match _ -> 0
  | Cov_action -> 1
  | Cov_set _ -> 2
  | Cov_fallthrough -> 3

let compare_what (a : Policy.cov_point) (b : Policy.cov_point) =
  match (a, b) with
  | Cov_match a, Cov_match b ->
      let c = Int.compare a.idx b.idx in
      if c <> 0 then c else Bool.compare a.outcome b.outcome
  | Cov_set i, Cov_set j -> Int.compare i j
  | _ -> Int.compare (what_rank a) (what_rank b)

let compare_point a b =
  let c = Int.compare a.pt_site.cs_node b.pt_site.cs_node in
  if c <> 0 then c
  else
    let c = String.compare a.pt_site.cs_map b.pt_site.cs_map in
    if c <> 0 then c
    else
      let c = Int.compare a.pt_seq b.pt_seq in
      if c <> 0 then c else compare_what a.pt_what b.pt_what

let id_of p =
  let what =
    match p.pt_what with
    | Cov_match { idx; outcome } ->
        Printf.sprintf "m%d=%c" idx (if outcome then 'T' else 'F')
    | Cov_action -> "act"
    | Cov_set i -> Printf.sprintf "s%d" i
    | Cov_fallthrough -> "fall"
  in
  Printf.sprintf "n%d/%s/e%d/%s" p.pt_site.cs_node p.pt_site.cs_map p.pt_seq what

(* Universe and counter cache.  The mutex guards the hashtables only;
   hit counts themselves are Metrics counters (atomic) so the observer
   takes the lock once per new point, not per hit. *)
let lock = Mutex.create ()
let universe : (string, point) Hashtbl.t = Hashtbl.create 512
let counters : (string, Telemetry.Metrics.counter) Hashtbl.t = Hashtbl.create 512

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter_of id =
  match Hashtbl.find_opt counters id with
  | Some c -> c
  | None ->
      let c = Telemetry.Metrics.counter ("confuzz.cov." ^ id) in
      Hashtbl.add counters id c;
      c

let add_point p =
  let id = id_of p in
  if not (Hashtbl.mem universe id) then Hashtbl.add universe id p;
  counter_of id

let on = Atomic.make false
let enabled () = Atomic.get on

let record site ~seq pt =
  let p = { pt_site = site; pt_seq = seq; pt_what = pt } in
  let c = with_lock (fun () -> add_point p) in
  Telemetry.Metrics.incr c

let enable () =
  Atomic.set on true;
  Policy.set_cov_observer (Some record)

let disable () =
  Atomic.set on false;
  Policy.set_cov_observer None

let reset () =
  with_lock (fun () ->
      Hashtbl.iter (fun _ c -> Telemetry.Metrics.reset c) counters;
      Hashtbl.reset universe)

let register_config ~node (cfg : Config.t) =
  with_lock (fun () ->
      List.iter
        (fun (name, map) ->
          let site = { Policy.cs_node = node; cs_map = name } in
          let add seq what =
            ignore (add_point { pt_site = site; pt_seq = seq; pt_what = what })
          in
          List.iter
            (fun (e : Policy.entry) ->
              List.iteri
                (fun idx _ ->
                  add e.seq (Cov_match { idx; outcome = true });
                  add e.seq (Cov_match { idx; outcome = false }))
                e.matches;
              add e.seq Cov_action;
              List.iteri (fun i _ -> add e.seq (Cov_set i)) e.sets)
            map;
          add (-1) Cov_fallthrough)
        (Config.referenced_maps cfg))

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun id p acc -> (p, Telemetry.Metrics.value (counter_of id)) :: acc)
        universe [])
  |> List.sort (fun (a, _) (b, _) -> compare_point a b)

let universe_size () = with_lock (fun () -> Hashtbl.length universe)

let covered () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun id _ acc ->
          if Telemetry.Metrics.value (counter_of id) > 0 then acc + 1 else acc)
        universe 0)

let hits p =
  let id = id_of p in
  with_lock (fun () ->
      if Hashtbl.mem universe id then Telemetry.Metrics.value (counter_of id) else 0)

let uncovered () =
  snapshot () |> List.filter_map (fun (p, n) -> if n = 0 then Some p else None)

let site ~node map =
  match map with
  | Some m when enabled () -> Some { Policy.cs_node = node; cs_map = m }
  | _ -> None
