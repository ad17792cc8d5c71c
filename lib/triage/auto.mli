(** Auto-triage: live detections → minimized repros → corpus entries.

    A {!t} wraps the scenario a live run was launched from.  Wire its
    {!hook} into {!Dice.Orchestrator.run}'s [?on_fault] and every newly
    detected fault is (1) fingerprinted against the deployment graph,
    (2) confirmed by one headless replay of the scenario, (3) shrunk by
    {!Minimize.run} using the detection's own concolic input as a hint,
    and (4) filed into the corpus — all while the live run keeps going.
    Nested replays save/restore the telemetry clock (see
    {!Scenario.run}) and record into a noop sink, so the live run's
    artifact and cascade window see only the live run. *)

type filed = {
  fd_fault : Dice.Fault.t;
  fd_signature : Dice.Signature.t;
  fd_result : Minimize.result option;  (** [None] when minimization was off *)
  fd_entry : Corpus.entry option;
      (** [None] when the headless replay never confirmed the signature
          (nothing was filed) *)
}

type t

val collector :
  ?minimize:bool ->
  ?max_tests:int ->
  ?repair:(Scenario.t -> Dice.Signature.t -> Telemetry.Json.t option) ->
  corpus_dir:string ->
  scenario:Scenario.t ->
  graph:Topology.Graph.t ->
  unit ->
  t
(** [scenario] must describe the run the faults come from (same
    topology, seed, schedules) — it is what gets minimized and stored.
    Each distinct signature is processed once per collector.

    [repair], when given, runs over each entry right after filing:
    called with the entry's (minimized) scenario and its signature, and
    any [dice-repair/1] record it returns is stored into the entry via
    {!Corpus.set_repair}.  Passed as a closure so this library does not
    depend on the repair engine — the CLI wires [Repair.Search] in. *)

val hook : t -> Dice.Fault.t -> unit
(** The function to pass as [?on_fault]. *)

val file_fault : t -> Dice.Fault.t -> filed option
(** Process one fault now; [None] if its signature was already seen. *)

val filed : t -> filed list
(** In processing order. *)
