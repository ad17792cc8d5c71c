(** Machine-readable coverage report for a fuzzing campaign
    ([dice-confuzz-cov/1]).

    The report carries the guided campaign and, optionally, an
    unguided comparison arm run under the same seed and budget — the
    artifact CI uploads so the "guidance beats random" property is
    inspectable per run. *)

val version : string
(** ["dice-confuzz-cov/1"], the report's ["schema"] member. *)

val arm_to_json : Loop.result -> Telemetry.Json.t
(** One campaign arm: budget/seed/guided, universe, baseline and final
    coverage, the per-round cumulative coverage curve, kept-stack and
    finding counts, and the uncovered point ids. *)

val to_json : guided:Loop.result -> ?random:Loop.result -> unit -> Telemetry.Json.t
(** Full report: schema tag, both arms, and the
    [confuzz.*] metric snapshot ({!Telemetry.Metrics.filtered}). *)

val validate : Telemetry.Json.t -> (unit, string) result
(** Schema tag, both arms' counters, curve and uncovered list, and
    coverage within the universe. *)

val pp_summary :
  Format.formatter -> guided:Loop.result -> ?random:Loop.result -> unit -> unit
(** Two-line human summary for the console. *)
