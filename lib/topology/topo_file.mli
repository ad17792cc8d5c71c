(** Textual topology files.

    Line-oriented:
    {v
    # comment
    node 0 tier1
    node 1 transit
    node 2 stub
    edge 1 0 customer     # node 1 buys transit from node 0
    edge 0 2 peer         # nodes 0 and 2 peer
    v}

    [edge A B customer] means A is the customer end (A pays B). *)

type parse_error = { line : int; message : string }

val parse : string -> (Graph.t, parse_error) result
val parse_exn : string -> Graph.t
val render : Graph.t -> string
(** [parse (render g)] reconstructs [g]. *)

val load : string -> (Graph.t, string) result
(** Read and parse a file path. *)
