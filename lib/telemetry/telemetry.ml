module Json = Json
module Histogram = Histogram
module Metrics = Metrics
module Sink = Sink
module Schema = Schema
module Artifact = Artifact

let schema_version = Schema.version

(* The sink and the enabled flag are separate atomics so the hot-path
   check is one load of an immediate bool, not a variant match. *)
let sink_ref = Atomic.make Sink.noop
let enabled_flag = Atomic.make false

let set_sink s =
  Atomic.set sink_ref s;
  Atomic.set enabled_flag (not (Sink.is_noop s))

let sink () = Atomic.get sink_ref
let enabled () = Atomic.get enabled_flag

let clock : (unit -> int) Atomic.t = Atomic.make (fun () -> 0)
let set_clock f = Atomic.set clock f
let current_clock () = Atomic.get clock
let now_us () = (Atomic.get clock) ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let next_span_id = Atomic.make 1

(* Innermost-first stack of open span ids, per domain. *)
let stack_key : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span_path () = List.rev (Domain.DLS.get stack_key)

type span = No_span | Span of { id : int; mutable end_attrs : (string * Json.t) list }

let add_attr sp attrs =
  match sp with
  | No_span -> ()
  | Span s -> s.end_attrs <- s.end_attrs @ attrs

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f No_span
  else begin
    let id = Atomic.fetch_and_add next_span_id 1 in
    let stack = Domain.DLS.get stack_key in
    let parent = match stack with [] -> None | p :: _ -> Some p in
    Sink.emit (sink ()) (Sink.Span_start { id; parent; name; t_us = now_us (); attrs });
    Domain.DLS.set stack_key (id :: stack);
    let sp = Span { id; end_attrs = [] } in
    let finish extra =
      Domain.DLS.set stack_key stack;
      let recorded = match sp with Span s -> s.end_attrs | No_span -> [] in
      Sink.emit (sink ())
        (Sink.Span_end { id; t_us = now_us (); attrs = recorded @ extra })
    in
    match f sp with
    | v ->
        finish [];
        v
    | exception e ->
        finish [ ("error", Json.String (Printexc.to_string e)) ];
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let run_header ?(attrs = []) () =
  if enabled () then
    Sink.emit (sink ())
      (Sink.Run
         { schema = schema_version;
           attrs = attrs @ [ ("wall_unix", Json.Float (Unix.gettimeofday ())) ] })

let fault ?t_us ~fault_class ~property ~node ~detail ~input () =
  if enabled () then
    Sink.emit (sink ())
      (Sink.Fault
         { t_us = (match t_us with Some t -> t | None -> now_us ());
           fault_class;
           property;
           node;
           detail;
           input;
           span_path = span_path () })

let trace_event ~t_us ~node ~kind ~detail =
  if enabled () then Sink.emit (sink ()) (Sink.Trace { t_us; node; kind; detail })

let sys_event ?t_us ~kind ~nodes ~detail () =
  if enabled () then
    Sink.emit (sink ())
      (Sink.Sys
         { t_us = (match t_us with Some t -> t | None -> now_us ());
           kind;
           nodes;
           detail })

let metrics_snapshot () =
  if enabled () then begin
    let s = sink () in
    List.iter
      (fun (name, value) ->
        Sink.emit s (Sink.Metric { t_us = now_us (); name; value }))
      (Metrics.snapshot ())
  end

(* ------------------------------------------------------------------ *)
(* Exporter conveniences                                               *)
(* ------------------------------------------------------------------ *)

let with_jsonl ?attrs path f =
  let oc = open_out path in
  let previous = sink () in
  set_sink (Sink.tee previous (Sink.jsonl oc));
  run_header ?attrs ();
  let finish () =
    metrics_snapshot ();
    set_sink previous;
    close_out oc
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let report ppf () =
  Format.fprintf ppf "@[<v>telemetry report@ ";
  Metrics.pp_report ppf ();
  Format.fprintf ppf "@]"
