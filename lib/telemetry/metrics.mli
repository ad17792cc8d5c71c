(** Global named metrics registry — typed counters, gauges and
    histograms.

    Metrics are process-global and always on: registering and bumping
    them is independent of whether a telemetry sink is installed (a
    counter increment is one [Atomic] op).  Subsystems declare their
    metrics once at module initialisation and bump them from any
    domain; exporters and reports read the registry at the end of a
    run.

    Names are dot-separated ([subsystem.metric], e.g.
    [solver.cache_hits]).  Re-registering a name returns the existing
    metric; registering it as a different kind raises. *)

type counter
type gauge

val counter : string -> counter
(** Find-or-register. @raise Invalid_argument if [name] is registered
    as a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset : counter -> unit

val gauge : string -> gauge
val set : gauge -> int -> unit

val histogram : ?buckets:float array -> string -> Histogram.t
(** Find-or-register; [buckets] only applies on first registration. *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f] runs [f] in a metrics scope of its own.  Inside it every
    metric counts on from its value at entry; when [f] returns or
    raises, every metric is put back as it was at entry.  One first
    registered inside a scope goes back to zero, and {!snapshot} and
    {!pp_report} leave it out until it holds a value, or is registered
    or (a counter or gauge) bumped outside every scope.  So nothing [f] does outlives the scope: for
    work that is not the run's own, such as a triage replay filed
    beside a live run.  Scopes nest.  Bumps that other domains make
    while [f] runs are undone with [f]'s. *)

val snapshot : unit -> (string * Json.t) list
(** One [(name, value)] pair per registered metric, sorted by name.
    Counters and gauges render as
    [{"kind": ..., "value": n}]; histograms as
    [{"kind": "histogram", "count": n, "sum": s, "min": .., "max": ..,
    "p50": .., "p99": .., "buckets": [{"le": b, "n": c}, ...]}] with
    [null] for the undefined fields of an empty histogram. *)

val pp_report : Format.formatter -> unit -> unit
(** Human-readable dump of the registry, one metric per line, sorted;
    empty histograms and zero counters are skipped. *)
