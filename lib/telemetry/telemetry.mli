(** The observability spine: causal spans, a metrics registry and
    JSONL run artifacts.

    One process-global sink receives every event.  The default sink is
    {!Sink.noop} and every recording entry point checks {!enabled}
    first, so an uninstrumented run pays (almost) nothing — the pin
    that a disabled sink changes no exploration results is part of the
    test suite.

    {b Determinism.}  Event timestamps come from the installed
    {!set_clock} — the orchestrator and the demo wire it to
    [Netsim.Engine.now], so a given seed yields the same timestamps on
    every host.  Wall-clock time appears only in the run-header
    attributes {!with_jsonl} writes on the first line.

    {b Domain safety.}  The span context is domain-local
    ([Domain.DLS]): a span opened on another domain (a campaign job on
    its watchdog's worker) starts a new root.  Sinks serialise emission
    internally. *)

module Json = Json
module Histogram = Histogram
module Metrics = Metrics
module Sink = Sink
module Schema = Schema
module Artifact = Artifact

(** {1 Sink management} *)

val set_sink : Sink.t -> unit
val sink : unit -> Sink.t

val enabled : unit -> bool
(** [false] iff the installed sink is [Noop]. *)

val set_clock : (unit -> int) -> unit
(** Install the timestamp source (simulated microseconds).  The
    default clock returns [0]. *)

val current_clock : unit -> unit -> int
(** The installed timestamp source — save it before running a nested
    simulation (which installs its own clock) and re-install it after,
    so an outer run's timeline survives inner headless replays (the
    triage minimizer does this). *)

(** {1 Spans} *)

type span
(** Handle passed to a {!with_span} body; lets it attach result
    attributes that are emitted with the closing event.  A no-op
    handle when telemetry is disabled. *)

val add_attr : span -> (string * Json.t) list -> unit

val with_span :
  ?attrs:(string * Json.t) list -> string -> (span -> 'a) -> 'a
(** [with_span name f] opens a span (parent = innermost span open on
    this domain), runs [f], closes the span — also on exception, with
    an [error] attribute.  When disabled, [f] runs with no allocation
    beyond its closure. *)

(** {1 Events} *)

val fault :
  ?t_us:int ->
  fault_class:string ->
  property:string ->
  node:int ->
  detail:string ->
  input:string option ->
  unit ->
  unit
(** Emit a fault record carrying the current span path, linking the
    detection to the round / cut / exploration / replay that produced
    it.  [t_us] defaults to the clock (pass the fault's own detection
    time when it differs). *)

val trace_event : t_us:int -> node:int -> kind:string -> detail:string -> unit
(** Simulator trace record: a labeled [Netsim.Network]'s send,
    deliver, churn and crash events and its speakers' session and
    loc-rib changes, in one timeline with the spans. *)

val sys_event :
  ?t_us:int -> kind:string -> nodes:int list -> detail:string -> unit -> unit
(** Infrastructure state-change record: churn applications
    ([churn.node-down] etc.) and supervisor decisions ([quarantine] /
    [unquarantine]).  First-class so the cascade stitcher sees them
    without reverse-engineering trace details.  [t_us] defaults to the
    clock. *)

(** {1 Exporter conveniences} *)

val with_jsonl :
  ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_jsonl path f]: open [path], tee a JSONL sink onto the
    installed one (so an outer monitor keeps seeing every event), emit
    the run header, run [f], then append a metrics snapshot, restore
    the previous sink and close the file (also on exception). *)

val report : Format.formatter -> unit -> unit
(** Human-readable end-of-run report over the metrics registry. *)
