(** The [dice-campaign/1] final report.

    One JSON object on one line: job totals, per-template outcome
    breakdowns, the deduplicated signature census, the filed-to-corpus
    list, and the cascade health gate.  The report derives {e only}
    from the deterministic campaign state — final verdicts, quarantine
    counts, filed signatures — never from wall-clock times or journal
    line counts, and every list is canonically sorted, so a campaign
    that was [kill -9]ed and resumed serializes byte-identically to
    one that ran uninterrupted. *)

val version : string
(** ["dice-campaign/1"] — shared with the spec; [doc] is ["report"]. *)

type job_final = {
  f_job : int;
  f_template : string;
  f_seed : int;
  f_status : Journal.status;
  f_attempts : int;  (** total attempts, retries included *)
  f_signatures : string list;
  f_cascades : string list;  (** online-monitor cascade roots *)
}

type t = {
  r_json : Telemetry.Json.t;
  r_outcome : string;  (** ["passed"] / ["degraded"] / ["failed"] *)
  r_gate_failed : bool;
      (** the cascade health gate: true iff any job's online monitor
          saw a self-sustaining failure — the campaign's exit-code
          criterion *)
}

val build :
  name:string ->
  spec_digest:string ->
  templates:string list ->
  total:int ->
  finals:job_final list ->
  quarantines:(string * int) list ->
  filed:string list ->
  t
(** [templates] in spec order (the report preserves it); [quarantines]
    maps template name to quarantine count; [filed] is the set of
    signatures filed to the corpus.  Outcome: [failed] when the health
    gate trips, else [degraded] when any job erred/hung, any template
    was quarantined, or jobs are missing final verdicts, else
    [passed]. *)

val validate : Telemetry.Json.t -> (unit, string) result
