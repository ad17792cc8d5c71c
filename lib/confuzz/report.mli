(** Machine-readable coverage report for a fuzzing campaign
    ([dice-confuzz-cov/1]).

    The report carries the guided campaign and, optionally, an
    unguided comparison arm run under the same seed and budget — the
    artifact CI uploads so the "guidance beats random" property is
    inspectable per run. *)

val version : string
(** ["dice-confuzz-cov/1"], the report's ["schema"] member. *)

val to_json : guided:Loop.result -> ?random:Loop.result -> unit -> Telemetry.Json.t
(** Full report: the schema tag and both arms.  Each arm says what was
    covered (universe, covered, per-round curve, kept stacks, findings,
    uncovered point ids), never how often a point was hit, so the bytes
    follow coverage rather than how many events the shadows stepped. *)

val validate : Telemetry.Json.t -> (unit, string) result
(** Schema tag, both arms' counters, curve and uncovered list, and
    coverage within the universe.  Other members are ignored, so a
    report that still carries the former [metrics] snapshot stays
    valid. *)

val pp_summary :
  Format.formatter -> guided:Loop.result -> ?random:Loop.result -> unit -> unit
(** Two-line human summary for the console. *)
