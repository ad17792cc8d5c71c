type event =
  | Run of { schema : string; attrs : (string * Json.t) list }
  | Span_start of {
      id : int;
      parent : int option;
      name : string;
      t_us : int;
      attrs : (string * Json.t) list;
    }
  | Span_end of { id : int; t_us : int; attrs : (string * Json.t) list }
  | Fault of {
      t_us : int;
      fault_class : string;
      property : string;
      node : int;
      detail : string;
      input : string option;
      span_path : int list;
    }
  | Metric of { t_us : int; name : string; value : Json.t }
  | Trace of { t_us : int; node : int; kind : string; detail : string }
  | Sys of { t_us : int; kind : string; nodes : int list; detail : string }

type t =
  | Noop
  | Jsonl of { oc : out_channel; j_lock : Mutex.t; mutable j_seq : int }
  | Ring of {
      r_buf : (int * event) Queue.t;
      r_cap : int;
      r_lock : Mutex.t;
      mutable r_seq : int;
    }
  | Tee of t * t

let noop = Noop
let jsonl oc = Jsonl { oc; j_lock = Mutex.create (); j_seq = 0 }

let make_ring r_cap =
  Ring { r_buf = Queue.create (); r_cap; r_lock = Mutex.create (); r_seq = 0 }

let memory () = make_ring max_int

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  make_ring capacity

let tee a b = Tee (a, b)

let rec is_noop = function
  | Noop -> true
  | Jsonl _ | Ring _ -> false
  | Tee (a, b) -> is_noop a && is_noop b

(* ------------------------------------------------------------------ *)
(* JSON codec (schema dice-telemetry/1)                                *)
(* ------------------------------------------------------------------ *)

let attrs_field attrs = ("attrs", Json.Obj attrs)

let to_json ~seq event =
  let base ty rest = Json.Obj (("type", Json.String ty) :: ("seq", Json.Int seq) :: rest) in
  match event with
  | Run { schema; attrs } ->
      base "run" [ ("schema", Json.String schema); attrs_field attrs ]
  | Span_start { id; parent; name; t_us; attrs } ->
      base "span_start"
        [ ("id", Json.Int id);
          ("parent", match parent with Some p -> Json.Int p | None -> Json.Null);
          ("name", Json.String name);
          ("t_us", Json.Int t_us);
          attrs_field attrs ]
  | Span_end { id; t_us; attrs } ->
      base "span_end" [ ("id", Json.Int id); ("t_us", Json.Int t_us); attrs_field attrs ]
  | Fault { t_us; fault_class; property; node; detail; input; span_path } ->
      base "fault"
        [ ("t_us", Json.Int t_us);
          ("class", Json.String fault_class);
          ("property", Json.String property);
          ("node", Json.Int node);
          ("detail", Json.String detail);
          ("input", match input with Some i -> Json.String i | None -> Json.Null);
          ("span_path", Json.List (List.map (fun i -> Json.Int i) span_path)) ]
  | Metric { t_us; name; value } ->
      base "metric"
        [ ("t_us", Json.Int t_us); ("name", Json.String name); ("value", value) ]
  | Trace { t_us; node; kind; detail } ->
      base "trace"
        [ ("t_us", Json.Int t_us);
          ("node", Json.Int node);
          ("kind", Json.String kind);
          ("detail", Json.String detail) ]
  | Sys { t_us; kind; nodes; detail } ->
      base "sys"
        [ ("t_us", Json.Int t_us);
          ("kind", Json.String kind);
          ("nodes", Json.List (List.map (fun n -> Json.Int n) nodes));
          ("detail", Json.String detail) ]

let of_json json =
  let ( let* ) = Result.bind in
  let field name = Artifact.field name json in
  let str name = Artifact.string_field name json in
  let int name = Artifact.int_field name json in
  let ints name = Artifact.list_of Artifact.as_int name json in
  let attrs () =
    let* v = field "attrs" in
    match v with
    | Json.Obj fields -> Ok fields
    | _ -> Error "field \"attrs\": expected object"
  in
  let* ty = str "type" in
  let* seq = int "seq" in
  let* event =
    match ty with
    | "run" ->
        let* schema = str "schema" in
        let* attrs = attrs () in
        Ok (Run { schema; attrs })
    | "span_start" ->
        let* id = int "id" in
        let* parent =
          let* v = field "parent" in
          match v with
          | Json.Null -> Ok None
          | Json.Int p -> Ok (Some p)
          | _ -> Error "field \"parent\": expected int or null"
        in
        let* name = str "name" in
        let* t_us = int "t_us" in
        let* attrs = attrs () in
        Ok (Span_start { id; parent; name; t_us; attrs })
    | "span_end" ->
        let* id = int "id" in
        let* t_us = int "t_us" in
        let* attrs = attrs () in
        Ok (Span_end { id; t_us; attrs })
    | "fault" ->
        let* t_us = int "t_us" in
        let* fault_class = str "class" in
        let* property = str "property" in
        let* node = int "node" in
        let* detail = str "detail" in
        let* input =
          let* v = field "input" in
          match v with
          | Json.Null -> Ok None
          | Json.String s -> Ok (Some s)
          | _ -> Error "field \"input\": expected string or null"
        in
        let* span_path = ints "span_path" in
        Ok (Fault { t_us; fault_class; property; node; detail; input; span_path })
    | "metric" ->
        let* t_us = int "t_us" in
        let* name = str "name" in
        let* value = field "value" in
        Ok (Metric { t_us; name; value })
    | "trace" ->
        let* t_us = int "t_us" in
        let* node = int "node" in
        let* kind = str "kind" in
        let* detail = str "detail" in
        Ok (Trace { t_us; node; kind; detail })
    | "sys" ->
        let* t_us = int "t_us" in
        let* kind = str "kind" in
        let* nodes = ints "nodes" in
        let* detail = str "detail" in
        Ok (Sys { t_us; kind; nodes; detail })
    | other -> Error (Printf.sprintf "unknown event type %S" other)
  in
  Ok (seq, event)

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let rec emit t event =
  match t with
  | Noop -> ()
  | Jsonl j ->
      Mutex.lock j.j_lock;
      let seq = j.j_seq in
      j.j_seq <- seq + 1;
      output_string j.oc (Json.to_string (to_json ~seq event));
      output_char j.oc '\n';
      Mutex.unlock j.j_lock
  | Ring r ->
      Mutex.lock r.r_lock;
      let seq = r.r_seq in
      r.r_seq <- seq + 1;
      Queue.push (seq, event) r.r_buf;
      if Queue.length r.r_buf > r.r_cap then ignore (Queue.pop r.r_buf);
      Mutex.unlock r.r_lock
  | Tee (a, b) ->
      (* Each branch keeps its own seq counter: a Jsonl branch stays a
         valid artifact on its own, a Ring branch stays a valid window. *)
      emit a event;
      emit b event

let rec events = function
  | Ring r ->
      Mutex.lock r.r_lock;
      let all = List.of_seq (Queue.to_seq r.r_buf) in
      Mutex.unlock r.r_lock;
      all
  | Tee (a, b) -> ( match events a with [] -> events b | evs -> evs)
  | Noop | Jsonl _ -> []

(* ------------------------------------------------------------------ *)
(* Streaming reader                                                    *)
(* ------------------------------------------------------------------ *)

let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let acc = ref init in
      let line_no = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr line_no;
           if String.trim line <> "" then begin
             let parsed =
               match Json.of_string line with
               | Error msg -> Error (Printf.sprintf "not valid JSON: %s" msg)
               | Ok json -> (
                   match of_json json with
                   | Error msg ->
                       Error (Printf.sprintf "not a telemetry event: %s" msg)
                   | Ok ev -> Ok ev)
             in
             acc := f !acc ~line:!line_no parsed
           end
         done
       with End_of_file -> ());
      !acc)

let iter_file path ~f = fold_file path ~init:() ~f:(fun () ~line r -> f ~line r)
