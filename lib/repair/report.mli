(** The [dice-repair/1] record — a repair attempt's durable result.

    Stored verbatim inside the corpus entry it repairs (the entry's
    optional ["repair"] member), uploaded as a CI artifact, and
    validated by [telemetry_check].  Contains {e no}
    timestamps and no host-dependent data: running the same repair
    twice over the same entry must produce byte-identical records. *)

val schema_version : string
(** ["dice-repair/1"]. *)

val of_outcome : Search.outcome -> Telemetry.Json.t
(** [status] is ["verified"] when a candidate survived replay,
    ["candidate"] when the solver produced patches but none verified,
    ["none-found"] otherwise; the top-level ["patch"] member (the
    mutation list a replayer appends to [dp_confuzz]) is present only
    when verified. *)

val status : Telemetry.Json.t -> string
(** The record's ["status"], or ["none"] when absent/malformed. *)

val validate : Telemetry.Json.t -> (unit, string) result
(** Structural check: schema tag, status enum, target parses as a
    signature, candidates carry decodable patches, a ["verified"]
    record has a top-level patch whose mutations decode. *)

val pp_summary : Format.formatter -> Telemetry.Json.t -> unit
(** One paragraph for the CLI: status, suspect count, the winning
    patch's description. *)
