(** The campaign's scenario watchdog: run a job on a worker domain and
    wait for it up to a timeout.

    Each {!submit} spawns one domain for its job.  OCaml domains cannot
    be killed, so a job the caller stops waiting for keeps its domain
    running beside later jobs until it finishes on its own; that
    wedged worker is leaked on purpose, and the next job gets a fresh
    one. *)

type 'a task

val submit : (unit -> 'a) -> 'a task
(** Start the job on a newly spawned domain. *)

val await_timeout : 'a task -> timeout_s:float -> 'a option
(** Poll the job every millisecond for up to [timeout_s] wall-clock
    seconds: [Some] its value once it has finished, [None] if the
    deadline passed first.  The job is not cancelled, so a later call
    may still collect it.  Re-raises (with its original backtrace) any
    exception the job raised. *)
