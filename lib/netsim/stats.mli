(** Named per-component counters (a speaker's [tx_update],
    [session_down], ...).  Single-domain; process-wide accounting
    lives in {!Telemetry.Metrics}. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** 0 for a counter never touched. *)
