type t = { o_ring : Telemetry.Sink.t; o_seen : (string, unit) Hashtbl.t }

let probe t =
  let timeline = Timeline.of_events (Telemetry.Sink.events t.o_ring) in
  let cascades = Detect.detect timeline in
  (* Fresh roots only: the window keeps sliding, so the same cascade
     re-detects on every probe — report each root once per monitor. *)
  List.filter_map
    (fun c ->
      let root = Detect.root_of c in
      if Hashtbl.mem t.o_seen root then None
      else begin
        Hashtbl.add t.o_seen root ();
        Some (Detect.to_fault c)
      end)
    cascades

(* Wide enough for a whole small deployment's replay: the loc-rib flips
   and supervisor decisions of every round stay in view. *)
let capacity = 65536

let with_monitor f =
  let prev = Telemetry.sink () in
  let ring = Telemetry.Sink.ring ~capacity in
  (* Tee so the run's own sink (artifact, memory, ...) keeps seeing
     everything; with no sink installed the ring alone turns recording
     on, which is the monitor's whole point. *)
  Telemetry.set_sink (Telemetry.Sink.tee prev ring);
  Fun.protect
    ~finally:(fun () -> Telemetry.set_sink prev)
    (fun () -> f { o_ring = ring; o_seen = Hashtbl.create 4 })
