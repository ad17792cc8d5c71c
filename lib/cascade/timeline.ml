module Sink = Telemetry.Sink

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int option;
  sp_start_us : int;
  sp_end_us : int option;
}

type fault = {
  fl_t_us : int;
  fl_class : string;
  fl_property : string;
  fl_node : int;
  fl_detail : string;
  fl_round : int option;
}

type sys = {
  sy_t_us : int;
  sy_kind : string;
  sy_nodes : int list;
  sy_detail : string;
}

type flip = { fp_t_us : int; fp_node : int; fp_prefix : string; fp_state : string }

type t = {
  tl_records : int;
  tl_spans : int;
  tl_rounds : int;
  tl_faults : fault list;
  tl_sys : sys list;
  tl_flips : flip list;
  tl_first_us : int;
  tl_last_us : int;
}

type builder = {
  mutable b_records : int;
  b_spans : (int, span) Hashtbl.t;
  (* round span id -> round index (from the span's [index] attribute) *)
  b_rounds : (int, int) Hashtbl.t;
  mutable b_faults : fault list;
  mutable b_sys : sys list;
  mutable b_flips : flip list;
  mutable b_first_us : int option;
  mutable b_last_us : int;
}

let builder () =
  { b_records = 0; b_spans = Hashtbl.create 64; b_rounds = Hashtbl.create 16;
    b_faults = []; b_sys = []; b_flips = []; b_first_us = None; b_last_us = 0 }

let see_time b t_us =
  (match b.b_first_us with
  | None -> b.b_first_us <- Some t_us
  | Some f -> if t_us < f then b.b_first_us <- Some t_us);
  if t_us > b.b_last_us then b.b_last_us <- t_us

(* Innermost enclosing round span wins: the path is root-first, so scan
   from the right. *)
let round_of_path b path =
  List.fold_left
    (fun acc id -> match Hashtbl.find_opt b.b_rounds id with Some i -> Some i | None -> acc)
    None path

let add b (event : Sink.event) =
  b.b_records <- b.b_records + 1;
  match event with
  | Sink.Run _ -> ()
  | Sink.Span_start { id; parent; name; t_us; attrs } ->
      see_time b t_us;
      Hashtbl.replace b.b_spans id
        { sp_id = id; sp_name = name; sp_parent = parent; sp_start_us = t_us;
          sp_end_us = None };
      if String.equal name "round" then (
        match List.assoc_opt "index" attrs with
        | Some (Telemetry.Json.Int i) -> Hashtbl.replace b.b_rounds id i
        | _ -> Hashtbl.replace b.b_rounds id (Hashtbl.length b.b_rounds))
  | Sink.Span_end { id; t_us; _ } -> (
      see_time b t_us;
      match Hashtbl.find_opt b.b_spans id with
      | Some sp -> Hashtbl.replace b.b_spans id { sp with sp_end_us = Some t_us }
      | None -> ())
  | Sink.Fault { t_us; fault_class; property; node; detail; span_path; _ } ->
      see_time b t_us;
      b.b_faults <-
        { fl_t_us = t_us; fl_class = fault_class; fl_property = property;
          fl_node = node; fl_detail = detail;
          fl_round = round_of_path b span_path }
        :: b.b_faults
  | Sink.Metric _ -> ()
  | Sink.Trace { t_us; node; kind; detail } ->
      see_time b t_us;
      if String.equal kind "loc-rib" then (
        match Bgp.Rib.parse_loc_event detail with
        | Some (prefix, state) ->
            b.b_flips <-
              { fp_t_us = t_us; fp_node = node; fp_prefix = prefix;
                fp_state = state }
              :: b.b_flips
        | None -> ())
  | Sink.Sys { t_us; kind; nodes; detail } ->
      see_time b t_us;
      b.b_sys <-
        { sy_t_us = t_us; sy_kind = kind; sy_nodes = nodes; sy_detail = detail }
        :: b.b_sys

let finish b =
  { tl_records = b.b_records;
    tl_spans = Hashtbl.length b.b_spans;
    tl_rounds = Hashtbl.length b.b_rounds;
    tl_faults = List.rev b.b_faults;
    tl_sys = List.rev b.b_sys;
    tl_flips = List.rev b.b_flips;
    tl_first_us = Option.value b.b_first_us ~default:0;
    tl_last_us = b.b_last_us }

let of_events events =
  let b = builder () in
  List.iter (fun (_seq, ev) -> add b ev) events;
  finish b

let of_file path =
  let b = builder () in
  let errors =
    Sink.fold_file path ~init:[] ~f:(fun errs ~line r ->
        match r with
        | Ok (_seq, ev) ->
            add b ev;
            errs
        | Error msg -> Printf.sprintf "line %d: %s" line msg :: errs)
  in
  match errors with [] -> Ok (finish b) | errs -> Error (List.rev errs)

let duration_us t = max 0 (t.tl_last_us - t.tl_first_us)
