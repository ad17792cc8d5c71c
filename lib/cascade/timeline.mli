(** Normalized view of a telemetry timeline — the cascade analyzer's
    input.

    Ingests a [dice-telemetry/1] event stream (a JSONL artifact or a
    live sink's buffered events) and keeps exactly what causal
    stitching needs: the round spans, every fault with its enclosing
    round, every infrastructure [sys] record, and every loc-rib
    flip-flop reconstructed from the simulator trace records.

    Ingestion is tolerant by design: a bounded ring window starts
    mid-run, so missing run headers, unmatched span ends and fault
    span paths naming evicted spans are all fine — the affected record
    just loses its round attribution, never the whole analysis. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int option;
  sp_start_us : int;
  sp_end_us : int option;
}

type fault = {
  fl_t_us : int;
  fl_class : string;
  fl_property : string;
  fl_node : int;
  fl_detail : string;
  fl_round : int option;
      (** index of the innermost enclosing [round] span, when the
          span path resolves *)
}

type sys = {
  sy_t_us : int;
  sy_kind : string;
  sy_nodes : int list;
  sy_detail : string;
}

type flip = {
  fp_t_us : int;
  fp_node : int;
  fp_prefix : string;
  fp_state : string;  (** ["via <peer>"] or ["unreachable"] ({!Bgp.Rib.loc_event}) *)
}

type t = {
  tl_records : int;  (** events ingested, of any type *)
  tl_spans : int;
  tl_rounds : int;  (** distinct [round] spans seen *)
  tl_faults : fault list;  (** in emission order *)
  tl_sys : sys list;  (** in emission order *)
  tl_flips : flip list;  (** in emission order *)
  tl_first_us : int;
  tl_last_us : int;
}

val of_events : (int * Telemetry.Sink.event) list -> t
(** Ingest a buffering sink's [(seq, event)] list (see
    {!Telemetry.Sink.events}) — the online monitor's path. *)

val of_file : string -> (t, string list) result
(** Stream a JSONL artifact via {!Telemetry.Sink.fold_file} without
    loading it whole.  Malformed lines are fatal: every one is
    reported as ["line N: msg"]. *)

val duration_us : t -> int
