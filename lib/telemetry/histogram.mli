(** Fixed-bucket histograms with exact-sample quantiles.

    A histogram accumulates float observations into fixed buckets
    (inclusive upper bounds, plus an implicit overflow bucket) while
    also retaining the raw samples, so reports can show both a stable
    bucket shape and exact nearest-rank percentiles.  All operations
    are domain-safe: a single mutex guards each histogram, and pool
    workers may observe concurrently.

    This is {e the} quantile implementation for the repository —
    [Netsim.Stats] delegates its distribution queries here rather than
    keeping a second (subtly different) nearest-rank formula alive. *)

type t

val create : ?buckets:float array -> string -> t
(** [create name] makes an empty histogram.  [buckets] must be strictly
    increasing (checked); values above the last bound land in the
    overflow bucket.
    @raise Invalid_argument if [buckets] is empty or not increasing. *)

val observe : t -> float -> unit
val restorer : t -> unit -> unit
(** [restorer t] is a function that puts [t] back as it is now. *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
val max_value : t -> float
(** [nan] when no sample was recorded, as is {!percentile}.  Callers
    must test with [Float.is_nan], never with [=]. *)

val percentile : t -> float -> float
(** [percentile t p] is the nearest-rank percentile of the recorded
    samples for [p] in [\[0, 1\]]: rank [max 1 (ceil (p * n))], so
    [p = 0.] is exactly the minimum and [p = 1.] exactly the maximum
    (no off-by-one at either edge).  [nan] on an empty histogram.
    @raise Invalid_argument if [p] is outside [\[0, 1\]] or NaN. *)

val buckets : t -> (float * int) list
(** [(upper_bound, count)] per bucket in increasing bound order; the
    final entry is [(infinity, overflow_count)].  A value [v] is
    counted in the first bucket with [v <= upper_bound]. *)

val pp : Format.formatter -> t -> unit
