type filed = {
  fd_fault : Dice.Fault.t;
  fd_signature : Dice.Signature.t;
  fd_result : Minimize.result option;  (* None when minimization was off *)
  fd_entry : Corpus.entry option;  (* None when the replay never confirmed *)
}

type t = {
  corpus_dir : string;
  scenario : Scenario.t;
  graph : Topology.Graph.t;
  minimize : bool;
  max_tests : int;
  repair : (Scenario.t -> Dice.Signature.t -> Telemetry.Json.t option) option;
  mutable seen : string list;  (* signature strings already processed *)
  mutable filed : filed list;  (* newest first *)
}

let collector ?(minimize = true) ?(max_tests = Minimize.default_max_tests)
    ?repair ~corpus_dir ~scenario ~graph () =
  { corpus_dir; scenario; graph; minimize; max_tests; repair;
    seen = []; filed = [] }

(* Run the repair hook over a freshly filed entry; a produced record is
   stored back into the entry on disk.  The hook lives behind a
   function value so triage does not depend on the repair library. *)
let attempt_repair t (entry : Corpus.entry) sg =
  match t.repair with
  | None -> entry
  | Some f -> (
      match f entry.Corpus.e_scenario sg with
      | None -> entry
      | Some record -> Corpus.set_repair ~dir:t.corpus_dir entry record)

(* The confirm, minimize and repair replays are the collector's own
   work, not the live run's: they record into a noop sink and bump
   metrics in a scope of their own, so the caller's artifact, cascade
   window and metric values are the same whether or not a corpus is
   being filed.  (Each replay still runs its own cascade monitor, which
   tees onto the noop.) *)
let quietly f =
  let saved = Telemetry.sink () in
  Telemetry.set_sink Telemetry.Sink.noop;
  Fun.protect ~finally:(fun () -> Telemetry.set_sink saved) (fun () -> Telemetry.Metrics.scoped f)

let file_fault t (f : Dice.Fault.t) =
  let sg = Dice.Signature.of_fault ~graph:t.graph f in
  let key = Dice.Signature.to_string sg in
  if List.mem key t.seen then None
  else begin
    t.seen <- key :: t.seen;
    let filed =
      quietly @@ fun () ->
      (* Confirm the scenario reproduces the signature headlessly before
         spending the minimization budget; a non-reproducing detection
         (which a fully seeded scenario should never yield) is recorded
         but not filed. *)
      if not (Scenario.detects t.scenario sg) then
        { fd_fault = f; fd_signature = sg; fd_result = None; fd_entry = None }
      else if t.minimize then begin
        let r =
          Minimize.run ~max_tests:t.max_tests ?hint_input:f.Dice.Fault.f_input
            ~target:sg t.scenario
        in
        let entry = Corpus.add ~dir:t.corpus_dir sg r.Minimize.r_minimized in
        let entry = attempt_repair t entry sg in
        { fd_fault = f; fd_signature = sg; fd_result = Some r; fd_entry = Some entry }
      end
      else
        let entry = Corpus.add ~dir:t.corpus_dir sg t.scenario in
        let entry = attempt_repair t entry sg in
        { fd_fault = f; fd_signature = sg; fd_result = None; fd_entry = Some entry }
    in
    t.filed <- filed :: t.filed;
    Some filed
  end

let hook t f = ignore (file_fault t f)

let filed t = List.rev t.filed
