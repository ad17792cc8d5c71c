(** The persistent regression corpus: one JSON file per stable fault
    signature.

    Layout: a directory of [<md5(signature)>.json] files, each a single
    [dice-corpus/1] object:

    {v
    { "schema":     "dice-corpus/1",
      "signature":  "<Signature.to_string>",
      "scenario":   { ... Scenario.to_json ... },
      "first_seen": 1754000000.0,      // unix seconds
      "last_seen":  1754000000.0,
      "hits":       3,
      "env":        { "ocaml": "...", "os": "...", "word_size": "64" } }
    v}

    {!validate} is the {e single} schema gate — the CLI, the wire
    fuzzer's failure filing and the CI replay job all load entries
    through it, so there is exactly one definition of a well-formed
    corpus entry. *)

val schema_version : string
(** ["dice-corpus/1"]. *)

type entry = {
  e_signature : Dice.Signature.t;
  e_scenario : Scenario.t;  (** the (minimized) repro *)
  e_first_seen : float;  (** unix seconds *)
  e_last_seen : float;
  e_hits : int;  (** distinct filings of this signature *)
  e_env : (string * string) list;  (** toolchain fingerprint of the last filing *)
  e_repair : Telemetry.Json.t option;
      (** optional [dice-repair/1] record from the repair engine.
          Entries without one serialize byte-for-byte as before the
          field existed; {!validate} only checks the schema tag here —
          full structure is [telemetry_check]'s job.  Filing a
          {e smaller} repro via {!add} drops the record (it targeted
          the replaced scenario). *)
}

val filename_of : Dice.Signature.t -> string
(** [md5_hex (Signature.to_string sg) ^ ".json"] — stable across runs
    and hosts. *)

val entry_to_json : entry -> Telemetry.Json.t
val validate : Telemetry.Json.t -> (entry, string) result
val entry_of_string : string -> (entry, string) result

(** {1 Store operations} *)

val add : dir:string -> ?now:float -> Dice.Signature.t -> Scenario.t -> entry
(** File a detection: creates [dir] if needed; a fresh signature gets a
    new entry, a known one bumps [hits]/[last_seen] and keeps whichever
    repro is {e smaller} ({!Scenario.size}).  Writes are atomic
    (tmp + rename).  [now] defaults to wall clock — tests pass it
    explicitly. *)

val load : dir:string -> (string * (entry, string) result) list
(** Every [.json] file in [dir], sorted by filename, each through
    {!validate}.  Empty list for a missing directory. *)

val find : dir:string -> Dice.Signature.t -> entry option
val remove : dir:string -> Dice.Signature.t -> bool

(** {1 Repair record} *)

type repair_status = [ `None | `Candidate | `Verified ]

val repair_status : entry -> repair_status
(** [`None] also covers a stored record whose status is "none-found"
    (a repair ran and produced nothing). *)

val repair_status_name : repair_status -> string

val set_repair : dir:string -> entry -> Telemetry.Json.t -> entry
(** Store a repair record into the entry's file (atomic rewrite, like
    {!add}) and return the updated entry. *)

val patched_scenario : entry -> Scenario.t option
(** The stored scenario with the repair record's winning ["patch"]
    mutations appended to [dp_confuzz] — the scenario whose replay the
    verifier accepted.  [None] when there is no record, no patch, the
    patch fails to decode, or the scenario is a wire repro. *)

(** {1 Replay} *)

type verdict =
  | Confirmed of Dice.Signature.t list
      (** the stored signature was detected again; the list holds any
          {e other} signatures the replay reported alongside it (the
          strict CI replay flags ones missing from the corpus) *)
  | Vanished of Dice.Signature.t list
      (** replay ran but reported different (possibly zero) signatures *)
  | Replay_error of string  (** the scenario could not be replayed *)

val replay : entry -> verdict
(** One deterministic {!Scenario.run} of the stored repro, checked
    against the stored signature. *)

val pp_verdict : Format.formatter -> verdict -> unit

val gc : dir:string -> (string * string) list
(** Drop entries that are invalid or whose replay no longer confirms;
    returns the removed [(path, reason)] pairs. *)
