(** Online cascade monitoring over a bounded window of recent
    telemetry.

    [with_monitor] tees the current sink with a bounded ring
    ([capacity] events, default 8192, oldest dropped); [probe]
    re-analyzes the window and returns the {e newly seen} cascades as {!Dice.Fault.Cascade}
    faults — wire it to {!Dice.Orchestrator.run}'s [?probe] and
    [?on_cascade] to get cascade detection while the deployment is
    still running:

    {[
      Cascade.Online.with_monitor @@ fun mon ->
      Dice.Orchestrator.run
        ~probe:(fun () -> Cascade.Online.probe mon)
        ~on_cascade:handle ... ()
    ]}

    Each cascade root is reported once per monitor; the window keeps
    sliding underneath, so re-detections of the same root are
    swallowed.  [with_monitor] restores the previous sink when its body
    returns or raises. *)

type t

val probe : t -> Dice.Fault.t list
val with_monitor : ?capacity:int -> (t -> 'a) -> 'a
