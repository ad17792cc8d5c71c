(** Declarative campaign specs — the [dice-campaign/1] input document.

    A campaign is a list of scenario {e templates} (each a complete
    {!Triage.Scenario} plus a seed sweep) and the supervision knobs the
    driver runs them under: the per-scenario watchdog, the
    whole-campaign wall budget, the retry count for flaky verdicts and
    the strike/backoff quarantine policy.  {!jobs} expands the
    templates into the concrete job list — template × seed, in a fixed
    deterministic order — which is the unit everything downstream
    (journal, scheduler, report) speaks in.

    {v
    { "schema": "dice-campaign/1",
      "doc":    "spec",
      "name":   "nightly",
      "scenario_budget_sec": 60.0,       // watchdog per scenario run
      "budget_sec": null,                // whole-campaign wall budget
      "retries": 1,                      // extra attempts per flaky job
      "max_strikes": 2, "backoff": 2,    // template quarantine policy
      "checkpoint_every": 8,             // journal checkpoint cadence
      "templates": [
        { "name": "hijack-sweep",
          "seeds": [1, 2, 3],            // or {"from": 1, "count": 8}
          "scenario": { ... Triage.Scenario.to_json ... } } ] }
    v} *)

val schema_version : string
(** ["dice-campaign/1"] — shared with the final report; the ["doc"]
    field distinguishes specs from reports. *)

type template = {
  t_name : string;  (** unique within the spec *)
  t_seeds : int list;
  t_scenario : Triage.Scenario.t;
      (** the base scenario; each seed expands it via
          {!Triage.Scenario.with_seed} *)
}

type t = {
  c_name : string;
  c_templates : template list;
  c_scenario_budget_s : float;
      (** per-scenario watchdog (host seconds); [<= 0.] disables it *)
  c_budget_s : float option;  (** whole-campaign wall budget *)
  c_retries : int;  (** extra attempts before a flaky job is final *)
  c_max_strikes : int;  (** consecutive final failures before quarantine *)
  c_backoff : int;  (** base quarantine length in scheduler steps *)
  c_checkpoint_every : int;  (** journal checkpoint cadence, in verdicts *)
}

val make : ?scenario_budget_s:float -> ?retries:int -> ?max_strikes:int ->
  ?backoff:int -> ?checkpoint_every:int -> name:string -> template list -> t
(** Defaults: 60 s watchdog, no campaign budget, 1 retry, 2 strikes,
    backoff 2, checkpoint every 8 verdicts.  Knobs are clamped to the
    bounds {!validate} enforces ([retries >= 0]; [max_strikes],
    [backoff], [checkpoint_every >= 1]). *)

type job = {
  j_id : int;  (** dense, stable: the journal's job key *)
  j_template : string;
  j_seed : int;
  j_scenario : Triage.Scenario.t;  (** already seed-expanded *)
}

val jobs : t -> job list
(** Template-major expansion in spec order: template 0's seeds, then
    template 1's, … — ids are the positions in this list, so the same
    spec always expands to the same jobs on every host. *)

val digest : t -> string
(** md5 hex of the canonical JSON encoding — journals pin it so
    [resume] can refuse a directory whose spec changed underneath. *)

val to_json : t -> Telemetry.Json.t
val validate : Telemetry.Json.t -> (t, string) result
(** The single schema gate: the CLI, the demo's [--campaign] path and
    the driver's resume all load specs through it. *)

val of_string : string -> (t, string) result
val load : string -> (t, string) result
(** Read and validate a spec file. *)

val save : path:string -> t -> unit
(** Atomic write ({!Telemetry.Artifact.write_json}): a crash mid-save
    leaves the old spec file or the new one, never a torn half-write. *)
