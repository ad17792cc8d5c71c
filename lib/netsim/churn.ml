type event =
  | Node_down of int
  | Node_up of int
  | Link_down of int * int
  | Link_up of int * int
  | Partition of int list * int list
  | Heal

type entry = { at : Time.span; ev : event }
type schedule = entry list

let entry ~at ev = { at; ev }

let crash ?restore_after ~node ~at () =
  let down = { at; ev = Node_down node } in
  match restore_after with
  | None -> [ down ]
  | Some d -> [ down; { at = at + d; ev = Node_up node } ]

let flap ~a ~b ~from_ ~every ~down_for ~times =
  if times < 0 then invalid_arg "Churn.flap: negative times";
  if down_for >= every then invalid_arg "Churn.flap: down_for must be < every";
  List.concat
    (List.init times (fun i ->
         let t0 = from_ + (i * every) in
         [ { at = t0; ev = Link_down (a, b) };
           { at = t0 + down_for; ev = Link_up (a, b) } ]))

let sort sched =
  (* Stable: simultaneous events keep their declaration order. *)
  List.stable_sort (fun x y -> Int.compare x.at y.at) sched

let random ~rng ~nodes ~links ~start ~duration ?(node_fraction = 0.2)
    ?(link_fraction = 0.2) () =
  if duration <= 0 then invalid_arg "Churn.random: non-positive duration";
  let pick_count frac n =
    let c = int_of_float (ceil (frac *. float_of_int n)) in
    min n (max 0 c)
  in
  let shuffle l =
    let a = Array.of_list l in
    Rng.shuffle rng a;
    Array.to_list a
  in
  let victims = ref [] in
  let n_nodes = pick_count node_fraction (List.length nodes) in
  let chosen_nodes = List.filteri (fun i _ -> i < n_nodes) (shuffle nodes) in
  List.iter
    (fun node ->
      let at = start + Rng.int rng (duration / 2) in
      let restore_after = (duration / 4) + Rng.int rng (max 1 (duration / 4)) in
      victims := !victims @ crash ~node ~at ~restore_after ())
    chosen_nodes;
  let n_links = pick_count link_fraction (List.length links) in
  let chosen_links = List.filteri (fun i _ -> i < n_links) (shuffle links) in
  List.iter
    (fun (a, b) ->
      let every = max 2 (duration / 3) in
      let down_for = max 1 (every / 3) in
      let from_ = start + Rng.int rng (max 1 (duration / 3)) in
      victims := !victims @ flap ~a ~b ~from_ ~every ~down_for ~times:2)
    chosen_links;
  sort !victims

let node_crashes sched =
  List.length (List.filter (fun e -> match e.ev with Node_down _ -> true | _ -> false) sched)

let link_downs sched =
  List.length
    (List.filter
       (fun e ->
         match e.ev with Link_down _ | Partition _ -> true | _ -> false)
       sched)

let event_nodes = function
  | Node_down n | Node_up n -> [ n ]
  | Link_down (a, b) | Link_up (a, b) -> [ a; b ]
  | Partition (xs, ys) -> xs @ ys
  | Heal -> []

let restrict ~nodes sched =
  let keep n = List.mem n nodes in
  List.filter_map
    (fun e ->
      match e.ev with
      | Node_down n | Node_up n -> if keep n then Some e else None
      | Link_down (a, b) | Link_up (a, b) ->
          if keep a && keep b then Some e else None
      | Partition (xs, ys) -> (
          (* A partition survives pruning as the partition of whatever
             remains on each side; one empty side means no cut at all. *)
          match (List.filter keep xs, List.filter keep ys) with
          | [], _ | _, [] -> None
          | xs', ys' -> Some { e with ev = Partition (xs', ys') })
      | Heal -> Some e)
    sched

let pp_event ppf = function
  | Node_down n -> Format.fprintf ppf "node %d down" n
  | Node_up n -> Format.fprintf ppf "node %d up" n
  | Link_down (a, b) -> Format.fprintf ppf "link %d<->%d down" a b
  | Link_up (a, b) -> Format.fprintf ppf "link %d<->%d up" a b
  | Partition (xs, ys) ->
      Format.fprintf ppf "partition {%s} | {%s}"
        (String.concat "," (List.map string_of_int xs))
        (String.concat "," (List.map string_of_int ys))
  | Heal -> Format.fprintf ppf "heal"

let pp ppf sched =
  List.iter
    (fun { at; ev } -> Format.fprintf ppf "  t+%.1fs %a@." (float_of_int at /. 1e6) pp_event ev)
    sched

let events_applied = lazy (Telemetry.Metrics.counter "churn.events_applied")

let event_kind = function
  | Node_down _ -> "churn.node-down"
  | Node_up _ -> "churn.node-up"
  | Link_down _ -> "churn.link-down"
  | Link_up _ -> "churn.link-up"
  | Partition _ -> "churn.partition"
  | Heal -> "churn.heal"

let apply_event net ev =
  Telemetry.Metrics.incr (Lazy.force events_applied);
  Telemetry.sys_event ~kind:(event_kind ev) ~nodes:(event_nodes ev)
    ~detail:(Format.asprintf "%a" pp_event ev) ();
  match ev with
  | Node_down n -> if Network.has_node net n then Network.set_node_down net n
  | Node_up n -> if Network.has_node net n then Network.set_node_up net n
  | Link_down (a, b) ->
      if Network.has_node net a && Network.has_node net b then begin
        (* Link events are symmetric: physical failures take out both
           directions of the adjacency. *)
        (try Network.set_link_down net a b with Invalid_argument _ -> ());
        try Network.set_link_down net b a with Invalid_argument _ -> ()
      end
  | Link_up (a, b) ->
      if Network.has_node net a && Network.has_node net b then begin
        (try Network.set_link_up net a b with Invalid_argument _ -> ());
        try Network.set_link_up net b a with Invalid_argument _ -> ()
      end
  | Partition (xs, ys) -> Network.partition net xs ys
  | Heal -> Network.heal net

let apply net sched =
  let eng = Network.engine net in
  List.map
    (fun { at; ev } ->
      Engine.schedule eng ~after:at (fun () -> apply_event net ev))
    (sort sched)
