(** Strike/quarantine bookkeeping shared by every supervising driver.

    The orchestrator quarantines explorer {e nodes} whose rounds keep
    failing; the campaign driver quarantines scenario {e templates}
    whose jobs keep hanging or crashing.  Both follow the same policy —
    [max_strikes] consecutive failures park the slot for
    [backoff * 2^(previous quarantines)] scheduling steps — so the
    policy lives here once, slot-indexed and unit-free: a "step" is
    whatever the caller schedules by (round index, job attempt).

    The tracker is deliberately pure bookkeeping: it never emits
    telemetry and never sleeps.  Callers translate {!quarantine}
    records into their own sys events / journal records, which keeps
    the decisions deterministic and replayable. *)

type quarantine = {
  qu_slot : int;
  qu_step : int;  (** step whose failure triggered the quarantine *)
  qu_strikes : int;  (** the strike count that tripped it *)
  qu_until : int;  (** first step the slot is eligible again *)
}

type t

val create : ?max_strikes:int -> ?backoff:int -> int -> t
(** [create n] tracks [n] slots.  [max_strikes] (default 3)
    consecutive failures trigger a quarantine of
    [backoff * 2^(previous quarantines)] steps (base [backoff]
    default 2).  Values [< 1] are clamped to [1]. *)

val quarantined : t -> slot:int -> step:int -> bool
(** Is [slot] parked at [step]?  Pure — never mutates. *)

val release_due : t -> step:int -> int list
(** Slots whose quarantine expires at [step] (ascending), marking them
    released — call once per step so each release is reported once;
    the caller turns these into unquarantine events. *)

val record : t -> slot:int -> step:int -> ok:bool -> quarantine option
(** Record the outcome of [slot]'s work at [step].  [ok] resets the
    slot's strikes; a failure increments them and, at [max_strikes],
    starts a quarantine (strikes reset, backoff doubles for next
    time) returned as [Some q]. *)
