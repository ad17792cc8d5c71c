(** Online cascade monitoring over a bounded window of recent
    telemetry.

    [with_monitor] tees the current sink with a bounded ring (the most
    recent 65536 events, oldest dropped); [probe] re-analyzes the
    window and returns the {e newly seen} cascades as
    {!Dice.Fault.Cascade} faults.  Wire it to {!Dice.Orchestrator.run}'s
    [?probe] to get cascade detection while the deployment is still
    running; each probed cascade flows through [?on_fault]:

    {[
      Cascade.Online.with_monitor @@ fun mon ->
      Dice.Orchestrator.run
        ~probe:(fun () -> Cascade.Online.probe mon)
        ~on_fault:handle ... ()
    ]}

    This is how [Triage.Scenario.run_observed] runs a cascade
    scenario, live or replayed alike.  Each cascade root is reported
    once per monitor; the window keeps sliding underneath, so
    re-detections of the same root are swallowed.  [with_monitor]
    restores the previous sink when its body returns or raises. *)

type t

val probe : t -> Dice.Fault.t list
val with_monitor : (t -> 'a) -> 'a
