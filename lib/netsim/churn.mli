(** Declarative failure schedules.

    A {!schedule} is a list of churn events at offsets relative to the
    moment {!apply} is called; applying it arms one engine timer per
    entry, so churn is as deterministic as everything else in the
    simulation.  Link events are applied symmetrically (both directions
    of the adjacency go down and come back together). *)

type event =
  | Node_down of int
  | Node_up of int
  | Link_down of int * int  (** symmetric: both directions *)
  | Link_up of int * int
  | Partition of int list * int list
  | Heal  (** restore every down link (nodes stay down) *)

type entry = { at : Time.span; ev : event }
(** [at] is an offset from the instant the schedule is applied. *)

type schedule = entry list

val entry : at:Time.span -> event -> entry

(** {1 Builders} *)

val crash : ?restore_after:Time.span -> node:int -> at:Time.span -> unit -> schedule
(** Crash [node] at offset [at]; restore it [restore_after] later if
    given, else it stays down. *)

val flap :
  a:int -> b:int -> from_:Time.span -> every:Time.span -> down_for:Time.span ->
  times:int -> schedule
(** Flap the (symmetric) link [a <-> b]: starting at [from_], take it
    down every [every] for [down_for], [times] times.
    @raise Invalid_argument if [down_for >= every] or [times < 0]. *)

val random :
  rng:Rng.t ->
  nodes:int list ->
  links:(int * int) list ->
  start:Time.span ->
  duration:Time.span ->
  ?node_fraction:float ->
  ?link_fraction:float ->
  unit ->
  schedule
(** A deterministic (given [rng]) schedule that crashes-and-restores
    [node_fraction] (default 0.2) of [nodes] and flaps [link_fraction]
    (default 0.2) of [links] inside the window
    [\[start, start + duration\]]. *)

(** {1 Inspection} *)

val node_crashes : schedule -> int
(** Number of [Node_down] entries. *)

val link_downs : schedule -> int
(** Number of [Link_down] (or [Partition]) entries. *)

val restrict : nodes:int list -> schedule -> schedule
(** Drop entries that reference nodes outside [nodes]; partitions are
    narrowed to the surviving members (and dropped when a side empties).
    Used by the triage minimizer so a pruned topology carries a pruned
    schedule instead of silently-skipped events. *)

val pp : Format.formatter -> schedule -> unit

(** {1 Execution} *)

val apply : 'msg Network.t -> schedule -> Engine.timer list
(** Arm one engine timer per entry (offsets measured from "now").
    Events naming unknown nodes or channels are skipped silently, so a
    schedule can be generated from a topology superset.  Returns the
    timers so a caller may cancel the remainder early. *)
