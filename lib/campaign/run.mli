(** The campaign driver: a supervising scheduler that treats every
    scenario run as an untrusted job.

    Each job (template × seed) executes on a worker domain under a
    wall-clock watchdog ({!Parallel.Pool.await_timeout}); a job that
    raises is absorbed into an [error] verdict, a job that exceeds the
    budget becomes [hung] — either way the fleet keeps going.  Flaky
    verdicts are retried up to the spec's [retries]; a template whose
    jobs keep failing is quarantined with exponential backoff
    ({!Dice.Supervise}) while the other templates progress.  Every
    fault signature is deduplicated campaign-wide before being filed
    to the corpus, and each job runs under its own
    {!Cascade.Online.with_monitor} so the health gate ("no
    self-sustaining failures") is part of the job's journaled verdict.

    {2 Crash safety}

    Every state transition is journaled ({!Journal}) before the driver
    moves on.  {!resume} replays the journal into the {e same}
    deterministic scheduler: jobs with journaled final verdicts are fed
    to the state machine without re-executing, everything else runs
    live.  Because the report derives only from verdict content (never
    wall time or journal shape), a campaign killed with [kill -9] and
    resumed produces a byte-identical [report.json] and the same filed
    corpus — provided the scenarios themselves are deterministic, which
    {!Triage.Scenario.run} guarantees as long as the watchdog never
    fires spuriously.  The one at-least-once corner: a crash between
    [Corpus.add] and the [filed] journal record refiles that signature
    on resume, bumping the corpus entry's hit count; the set of corpus
    files and the report are unaffected.

    {2 Directory layout}

    [DIR/spec.json] (the validated spec, for resume), [DIR/journal.jsonl],
    [DIR/report.json] (rewritten at the end of every invocation) and
    [DIR/corpus/] (default filing target). *)

type result_t = {
  r_report : Report.t;
  r_total : int;
  r_completed : int;  (** jobs with a final verdict, replay included *)
  r_executed : int;  (** jobs executed live this invocation *)
  r_replayed : int;  (** jobs satisfied from the journal *)
  r_filed : string list;  (** signatures filed this invocation *)
  r_warnings : string list;  (** e.g. the torn-final-line report *)
}

val start :
  ?runner:(Triage.Scenario.t -> Triage.Scenario.outcome) ->
  ?log:(string -> unit) ->
  ?crash_after:int ->
  ?corpus_dir:string ->
  dir:string ->
  Spec.t ->
  (result_t, string) result
(** Create [dir], persist the spec, journal the header and schedule,
    and drive the campaign to completion (or to the campaign budget).
    Fails if [dir] already holds a journal — use {!resume}.

    [runner] replaces {!Triage.Scenario.run} (tests inject hangs and
    crashes with it).  Under a scenario budget each job runs on a
    domain spawned for it, which is leaked rather than joined if the
    job hung.  [crash_after n]
    simulates a [kill -9] by [Unix._exit 137] immediately after the [n]-th live final
    verdict reaches the journal — the deterministic half of the CI
    kill-and-resume smoke. *)

val resume :
  ?runner:(Triage.Scenario.t -> Triage.Scenario.outcome) ->
  ?log:(string -> unit) ->
  ?crash_after:int ->
  ?corpus_dir:string ->
  dir:string ->
  unit ->
  (result_t, string) result
(** Reload [DIR/spec.json], replay the journal (verifying the spec
    digest and every checkpoint), truncate any torn final line off the
    journal so new appends start on a fresh line, then skip completed
    work and continue.  Idempotent: resuming a finished campaign just
    rebuilds the report. *)

val print_start : dir:string -> Spec.t -> unit
(** The line a fresh run prints before its first job. *)

val print_result : dir:string -> result_t -> int
(** Print warnings (stderr), the completion line, the filed signatures
    and the report path; return the exit status: [1] when the health
    gate failed, else [0]. *)
