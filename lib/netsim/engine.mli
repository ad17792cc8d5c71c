(** Discrete-event simulation engine.

    The engine owns the virtual clock and an event queue of callbacks.
    Execution is strictly deterministic: events fire in (time, insertion)
    order. *)

type t

type timer
(** Handle to a scheduled event; may be cancelled before it fires. *)

val create : ?seed:int -> unit -> t

val now : t -> Time.t
val rng : t -> Rng.t
(** Root generator; split it rather than using it directly from several
    components. *)

val schedule : t -> after:Time.span -> (unit -> unit) -> timer
(** [schedule t ~after f] runs [f] at [now t + after].  A non-positive
    [after] is treated as zero (runs at the current instant, after the
    events already queued for it). *)

val at : t -> Time.t -> (unit -> unit) -> timer
(** Schedule at an absolute instant; instants in the past fire "now". *)

val cancel : timer -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)

val pending : t -> int
(** Number of live (not cancelled, not fired) events. *)

val queued : t -> int
(** Number of queue slots: the live events plus the cancelled ones not
    yet reached. *)

val step : t -> bool
(** Execute the next event.  Returns [false] when the queue is empty. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run until the queue drains, [until] is reached, or [max_events] have
    fired — whichever comes first. *)

val stop : t -> unit
(** Makes the current [run] return after the executing event completes. *)
