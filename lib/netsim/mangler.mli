(** Adversarial wire-fault injection.

    A mangler corrupts byte-string messages on their way through
    {!Network.send}: per delivery, with probability [rate], one fault
    [kind] is drawn and applied.  Everything is driven by deterministic
    per-link RNG streams split from a single seed, so a given
    [(seed, rate, kinds)] configuration injects the identical fault
    pattern on every run — adversarial runs are replayable.

    {b Identity guarantee.} At [rate = 0] the transform consults no RNG
    and passes every message through untouched: a run with an idle
    mangler installed is bit-identical to a run without one.

    Faults are byte-level and protocol-agnostic, but three kinds
    ([Truncate], [Corrupt_length], [Corrupt_marker]) are aimed at BGP
    framing (RFC 4271 header: 16-byte marker, 2-byte length) so they
    reliably exercise the codec's error paths.  Control markers (the
    snapshot algorithm's traffic) are never touched — see
    {!Network.set_transform}.

    Registry counters: [mangler.mangled] / [mangler.dropped] /
    [mangler.duplicated] / [mangler.passed], plus per-kind
    [mangler.mangled.<kind>]. *)

type kind =
  | Bit_flip  (** flip one random bit *)
  | Truncate  (** cut to a strictly shorter prefix *)
  | Corrupt_length  (** forge the header length field *)
  | Corrupt_marker  (** overwrite a marker byte with non-0xFF *)
  | Duplicate  (** deliver the message twice *)
  | Garbage_prepend  (** 1-8 random bytes before the message *)
  | Garbage_append  (** 1-8 random bytes after the message *)
  | Drop  (** silently discard *)

val all_kinds : kind list

val corpus_kinds : kind list
(** The kinds that produce a mutated byte string (everything except
    [Duplicate] and [Drop]) — the corpus for fuzzing and for the
    explorer's mangled exploration seeds. *)

val kind_name : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_name} — lets schedules round-trip through the
    triage corpus' JSON form. *)

val mutate : Rng.t -> kind -> string -> string
(** [mutate rng kind s] is one byte-level mutation of [s].  Total on
    any string including the empty one; [Duplicate] and [Drop] return
    [s] unchanged (they are delivery-level, not byte-level, faults).
    [Truncate] and [Corrupt_marker] guarantee the result is not a valid
    framed BGP message. *)

type t

val create :
  ?rate:float -> ?kinds:kind list -> ?links:(int * int) list -> seed:int -> unit -> t
(** [create ~seed ()] — defaults: [rate = 0.], all kinds, every link.
    [links] restricts injection to the given directed channels.
    @raise Invalid_argument if [rate] is outside [0,1] or [kinds] is
    empty. *)

val install : t -> string Network.t -> unit
(** Install as the network's wire transform (replacing any previous
    transform). *)

val remove : string Network.t -> unit
(** Clear the network's wire transform. *)

val transform : t -> src:int -> dst:int -> string -> string list
(** The raw transform, exposed for tests. *)

val rate : t -> float
val set_kinds : t -> kind list -> unit

val totals : unit -> int * int * int * int
(** [(mangled, dropped, duplicated, passed)] from the registry. *)

val kind_counts : unit -> (string * int) list
(** Per-kind mangle counts, zero entries omitted. *)

(** {1 Declarative schedules}

    Same shape as {!Churn}: a sorted list of timed events armed on the
    network's engine. *)

type event =
  | Set_rate of float
  | Set_kinds of kind list
  | Set_links of (int * int) list option

type entry = { at : Time.span; ev : event }
type schedule = entry list

val entry : at:Time.span -> event -> entry

val window : rate:float -> from_:Time.span -> until_:Time.span -> schedule
(** Mangle at [rate] between [from_] and [until_], then fall back to
    silence. *)

val apply : t -> 'msg Network.t -> schedule -> Engine.timer list
(** Arm the schedule on the network's engine; returns the timers for
    {!cancel}. *)

val cancel : Engine.timer list -> unit
