(* [listed] holds while the metric was registered, or a counter or
   gauge of it bumped, outside every scope.  Until then it is reported
   only once it holds a value, so a scope leaves no trace of a metric it
   registered. *)
type counter = { c_name : string; c : int Atomic.t; c_listed : bool ref }
type gauge = { g_name : string; g : int Atomic.t; g_listed : bool ref }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type entry = { metric : metric; listed : bool ref }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

(* A function that puts the metric back as it is now. *)
let restorer = function
  | Counter c ->
      let v = Atomic.get c.c in
      fun () -> Atomic.set c.c v
  | Gauge g ->
      let v = Atomic.get g.g in
      fun () -> Atomic.set g.g v
  | Hist h -> Histogram.restorer h

(* Each open scope's restorers, innermost scope first.  A metric
   registered while scopes are open joins each of them as it was made:
   zero. *)
let open_scopes : (unit -> unit) list ref list ref = ref []

let outside () = match !open_scopes with [] -> true | _ :: _ -> false
let mark_listed listed = if (not !listed) && outside () then listed := true

let register name make use =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some e ->
        mark_listed e.listed;
        e.metric
    | None ->
        let listed = ref (outside ()) in
        let m = make listed in
        Hashtbl.add registry name { metric = m; listed };
        List.iter (fun scope -> scope := restorer m :: !scope) !open_scopes;
        m
  in
  Mutex.unlock registry_lock;
  match use m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as another kind" name)

let counter name =
  register name
    (fun c_listed -> Counter { c_name = name; c = Atomic.make 0; c_listed })
    (function Counter c -> Some c | Gauge _ | Hist _ -> None)

let incr c =
  mark_listed c.c_listed;
  Atomic.incr c.c

let add c n =
  mark_listed c.c_listed;
  ignore (Atomic.fetch_and_add c.c n)

let value c = Atomic.get c.c
let reset c = Atomic.set c.c 0

let gauge name =
  register name
    (fun g_listed -> Gauge { g_name = name; g = Atomic.make 0; g_listed })
    (function Gauge g -> Some g | Counter _ | Hist _ -> None)

let set g n =
  mark_listed g.g_listed;
  Atomic.set g.g n

let gauge_value g = Atomic.get g.g

let histogram ?buckets name =
  register name
    (fun _ -> Hist (Histogram.create ?buckets name))
    (function Hist h -> Some h | Counter _ | Gauge _ -> None)

let scoped f =
  Mutex.lock registry_lock;
  let scope = ref (Hashtbl.fold (fun _ e acc -> restorer e.metric :: acc) registry []) in
  open_scopes := scope :: !open_scopes;
  Mutex.unlock registry_lock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock registry_lock;
      open_scopes := List.filter (fun s -> s != scope) !open_scopes;
      Mutex.unlock registry_lock;
      List.iter (fun restore -> restore ()) !scope)

let holds_value = function
  | Counter c -> value c <> 0
  | Gauge g -> gauge_value g <> 0
  | Hist h -> Histogram.count h > 0

let entries () =
  Mutex.lock registry_lock;
  let all =
    Hashtbl.fold
      (fun k e acc -> if !(e.listed) || holds_value e.metric then (k, e.metric) :: acc else acc)
      registry []
  in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let float_or_null f = if Float.is_finite f then Json.Float f else Json.Null

let hist_json h =
  let n = Histogram.count h in
  let stat f = if n = 0 then Json.Null else float_or_null (f h) in
  Json.Obj
    [ ("kind", Json.String "histogram");
      ("count", Json.Int n);
      ("sum", float_or_null (Histogram.sum h));
      ("min", stat Histogram.min_value);
      ("max", stat Histogram.max_value);
      ("p50", stat (fun h -> Histogram.percentile h 0.5));
      ("p99", stat (fun h -> Histogram.percentile h 0.99));
      ("buckets",
       Json.List
         (List.map
            (fun (le, c) ->
              Json.Obj
                [ ("le", if Float.is_finite le then Json.Float le else Json.Null);
                  ("n", Json.Int c) ])
            (Histogram.buckets h))) ]

let snapshot () =
  List.map
    (fun (name, m) ->
      let v =
        match m with
        | Counter c ->
            Json.Obj
              [ ("kind", Json.String "counter"); ("value", Json.Int (value c)) ]
        | Gauge g ->
            Json.Obj
              [ ("kind", Json.String "gauge");
                ("value", Json.Int (gauge_value g)) ]
        | Hist h -> hist_json h
      in
      (name, v))
    (entries ())

let pp_report ppf () =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
          if value c <> 0 then Format.fprintf ppf "%s = %d@ " name (value c)
      | Gauge g ->
          if gauge_value g <> 0 then
            Format.fprintf ppf "%s = %d@ " name (gauge_value g)
      | Hist h -> if Histogram.count h > 0 then Format.fprintf ppf "%a@ " Histogram.pp h)
    (entries ())
