(** Telemetry events and sinks.

    Every observable thing in a run — span boundaries, detected
    faults, simulator trace records, end-of-run metric values — is one
    {!event}.  A {!t} receives events: [Noop] discards them (the
    default; recording must be near-zero-cost when nobody listens),
    {!memory} and {!ring} buffer them, [Jsonl] writes one JSON object
    per line in the [dice-telemetry/1] schema.

    Sinks are domain-safe: a mutex serialises emission, and the
    per-sink sequence number is assigned under that lock, so file
    order always equals [seq] order even when pool workers emit
    concurrently.

    Timestamps ([t_us]) are {e simulated} microseconds — wall time
    appears only in the run-header attributes written by the
    exporter. *)

type event =
  | Run of { schema : string; attrs : (string * Json.t) list }
      (** First line of an artifact: schema version + run metadata. *)
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
      span_path : int list;  (** root-first chain of enclosing span ids *)
    }
  | Metric of { t_us : int; name : string; value : Json.t }
  | Trace of { t_us : int; node : int; kind : string; detail : string }
  | Sys of { t_us : int; kind : string; nodes : int list; detail : string }
      (** Infrastructure state change: churn applications
          ([churn.node-down], [churn.link-up], [churn.partition],
          [churn.heal], …) and supervisor decisions ([quarantine],
          [unquarantine]).  [nodes] lists every node the change
          touches — the cascade stitcher links faults through these
          without parsing [detail]. *)

type t

val noop : t
val memory : unit -> t
(** Buffers every event (an unbounded {!ring}), for tests and whole-run
    analysis. *)

val jsonl : out_channel -> t
(** The caller owns the channel and closes it. *)

val ring : capacity:int -> t
(** A bounded [memory]: keeps the most recent [capacity] events,
    dropping the oldest — the online cascade monitor's window. *)

val tee : t -> t -> t
(** Every event goes to both sinks; each keeps its own sequence
    counter, so a [jsonl] branch remains a well-formed artifact and a
    [ring] branch a well-formed window. *)

val is_noop : t -> bool
val emit : t -> event -> unit

val events : t -> (int * event) list
(** Buffered [(seq, event)] pairs in ascending [seq] order; [[]] for
    non-buffering sinks ([Noop], [Jsonl]).  For a tee, the first
    buffering branch wins. *)

val to_json : seq:int -> event -> Json.t
val of_json : Json.t -> (int * event, string) result
(** Inverse of {!to_json}: decode one line back to [(seq, event)]. *)

(** {1 Streaming artifact reader} *)

val fold_file :
  string ->
  init:'a ->
  f:('a -> line:int -> ((int * event, string) result) -> 'a) ->
  'a
(** Iterate a JSONL artifact one line at a time without loading it
    whole.  [f] sees every non-blank physical line with its 1-based
    line number: [Ok (seq, event)] for well-formed records, [Error msg]
    for lines that are not JSON or not telemetry events — the caller
    decides whether a malformed line is fatal. *)

val iter_file :
  string -> f:(line:int -> ((int * event, string) result) -> unit) -> unit
