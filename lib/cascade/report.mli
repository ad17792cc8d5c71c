(** The [dice-cascade/1] analysis report and the DOT rendering of the
    propagation graph.

    A report is one JSON object (written as a single line):
    [schema], a [source] block (record counts and the sim-time extent
    of the analyzed timeline), a [graph] block (vertex/edge/cycle
    counts), and the canonical [cascades] list — each cascade with its
    kind, nodes, prefixes, evidence count, period and the stable
    {!Dice.Signature} wire form.  Everything derives from event
    content and sim time (never sequence numbers or span ids), so a
    pooled and a sequential run serialize byte-identically. *)

val version : string
(** ["dice-cascade/1"]. *)

val to_json :
  timeline:Timeline.t -> propagation:Graph.t -> Detect.cascade list -> Telemetry.Json.t

val validate : Telemetry.Json.t -> (unit, string) result

val write_dot : path:string -> Graph.t -> unit
