(** The campaign journal: an append-only, fsync'd JSONL log of every
    driver state transition.

    The journal is the campaign's only durable state.  Each record is
    one JSON object on one line, written with a single [write] and
    [fsync]ed before the driver takes the action it describes becomes
    observable elsewhere (corpus files are the one documented
    exception — see {!Run}).  A record is {e committed} once its
    terminating newline is on disk.  After a [kill -9] the file is a
    valid prefix of the uninterrupted journal, possibly ending in one
    torn line: {!read} tolerates exactly that — a malformed or
    unterminated {e final} line is reported and dropped, while
    malformed interior lines mean real corruption and fail the whole
    read.  {!read} also reports the committed byte length so
    {!Run.resume} can truncate the torn residue before appending;
    without the cut, the first new record would concatenate onto the
    partial line and turn a forgivable torn tail into fatal interior
    corruption on the next read.

    {!Checkpoint} records carry a digest of the replay-relevant state
    (final verdicts + filed signatures) so {!Run.resume} can verify the
    journal is internally consistent while replaying it. *)

type status = Passed | Failed of string  (** scenario raised/errored *)
            | Hung  (** watchdog expired *)

val status_to_string : status -> string
(** ["ok"] / ["error"] / ["hung"]. *)

type record =
  | Campaign of { name : string; spec_digest : string; jobs : int }
      (** first record of every journal *)
  | Scheduled of { job : int; template : string; seed : int }
  | Started of { job : int; attempt : int }
  | Verdict of {
      job : int;
      attempt : int;
      status : status;
      signatures : string list;  (** detected fault signatures *)
      cascades : string list;  (** online-monitor cascade roots *)
      final : bool;  (** false = will be retried *)
      wall_s : float;  (** informational; never enters the report *)
    }
  | Quarantined of { template : string; step : int; strikes : int; until : int }
  | Unquarantined of { template : string; step : int }
  | Filed of { job : int; signature : string; file : string }
  | Checkpoint of { completed : int; filed : int; digest : string }
  | End of { outcome : string }

val to_json : record -> Telemetry.Json.t
val of_json : Telemetry.Json.t -> (record, string) result

val state_digest :
  finals:(int * status) list -> filed:string list -> string
(** The digest pinned by {!Checkpoint} records: md5 over the sorted
    final verdict statuses and sorted filed signatures.  Order of the
    input lists does not matter. *)

type writer

val open_writer : ?truncate_at:int -> string -> writer
(** Open (creating if needed) for append.  [truncate_at] cuts the file
    to that byte length first (fsync'd) — resume passes {!read}'s
    committed length so appends never land on a torn tail.  Raises
    [Unix.Unix_error]. *)

val append : writer -> record -> unit
(** One line, one [write], one [fsync]. *)

val close : writer -> unit

val read : string -> (record list * string list * int, string) result
(** All committed records in order, warnings (the torn-final-line
    report, if any), and the committed byte length — the offset just
    past the last newline-terminated valid record, i.e. where an
    appender may safely resume.  Errors: unreadable file, malformed
    interior line, or a journal that does not start with
    {!Campaign}. *)
