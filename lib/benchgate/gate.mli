(** Regression gate over BENCH.json.

    Compares a freshly measured BENCH.json against a checked-in
    baseline, metric by metric, with per-family noise margins.  The
    comparison logic lives here — as a library — so the thresholds are
    unit-testable; [bin/bench_check] is a thin CLI over {!check}.

    A metric passes when it is within the rule's margin of the
    baseline; a gated metric present in the baseline but {e missing}
    from the fresh file fails (a benchmark silently dropped is itself a
    regression).  Metrics only the fresh file has are ignored — adding
    a benchmark must not require regenerating the baseline first. *)

type direction =
  | Lower_is_better  (** latencies, allocation, memory *)
  | Higher_is_better  (** throughputs *)

type verdict = {
  metric : string;
  base : float;
  fresh : float option;  (** [None]: gated metric missing from fresh *)
  limit : float;  (** the bound [fresh] had to satisfy *)
  dir : direction;
  ok : bool;
}

val check : baseline:Telemetry.Json.t -> fresh:Telemetry.Json.t -> verdict list
(** One verdict per baseline metric that matches a rule, in baseline
    order.  A metric is a dot-joined path into the gated families,
    e.g. ["micro_ns_per_op.dice/wire/decode-update"],
    ["detection.hijack-9.rounds"] or ["scale.lite.shadows_per_s"];
    booleans count as 1 and 0.  The first matching rule decides.
    Rules cover [micro_ns_per_op.*], [micro_minor_words_per_op.*], the
    [detection.*] per-row metrics (detected, rounds, inputs and
    simulated latency exactly, wall time with a margin) and the
    [scale.*] per-config metrics; workload descriptors (node counts,
    route totals) match no rule and are not gated. *)

val all_ok : verdict list -> bool

val load : string -> (Telemetry.Json.t, string) result
(** Read and parse a BENCH.json file. *)

val pp_verdict : Format.formatter -> verdict -> unit
