type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : int Atomic.t }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let register name make use =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add registry name m;
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
    (fun () -> Counter { c_name = name; c = Atomic.make 0 })
    (function Counter c -> Some c | Gauge _ | Hist _ -> None)

let incr c = Atomic.incr c.c
let add c n = ignore (Atomic.fetch_and_add c.c n)
let value c = Atomic.get c.c
let reset c = Atomic.set c.c 0

let gauge name =
  register name
    (fun () -> Gauge { g_name = name; g = Atomic.make 0 })
    (function Gauge g -> Some g | Counter _ | Hist _ -> None)

let set g n = Atomic.set g.g n
let gauge_value g = Atomic.get g.g

let histogram ?buckets name =
  register name
    (fun () -> Hist (Histogram.create ?buckets name))
    (function Hist h -> Some h | Counter _ | Gauge _ -> None)

let entries () =
  Mutex.lock registry_lock;
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
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
