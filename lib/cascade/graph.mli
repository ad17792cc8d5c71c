(** The causal fault-propagation graph.

    Vertices are {e states}, not event occurrences: a fault signature
    at a node, an infrastructure condition at a node, a loc-rib entry
    for a prefix at a node.  Edges are observed temporal transitions
    between states, inferred by three rules:

    - {b (a) recurrence} — the same fault signature (class, property,
      normalized detail) reported again in a later round links the two
      per-node signature states (a self-loop when it is the same
      node);
    - {b (b) induction} — a fault followed by a churn application or a
      quarantine decision touching the same node (within a window),
      and such an infrastructure event followed by a fault on a node
      it touches, are linked; consecutive infrastructure events on one
      node are always linked (the quarantine ping-pong chain);
    - {b (c) flap} — every observed loc-rib transition of one prefix
      at one node links its two rib states.

    Because vertices are states, a self-sustaining failure {e must}
    revisit a vertex, i.e. close a cycle: the strongly connected
    components of this graph (size two or more, or a self-loop) are
    exactly the cascade evidence, while any one-way convergence
    sequence — however long — stays acyclic. *)

type state =
  | Fault_sig of { key : string; node : int }
      (** [key] is ["class|property|normalized-detail"] *)
  | Sys_state of { kind : string; node : int }
  | Rib_state of { node : int; prefix : string; state : string }

type edge_kind = Recurrence | Induced | Flap

type t

val default_induce_window_us : int
(** 30 simulated seconds. *)

val build : ?induce_window_us:int -> Timeline.t -> t

val states : t -> state array
(** Vertex id = array index; interning order is deterministic in the
    timeline's event order. *)

val edges : t -> (int * int * edge_kind) list
val vertex_count : t -> int
val edge_count : t -> int

val sccs : t -> int list list
(** Nontrivial strongly connected components (size >= 2, or a single
    vertex with a self-loop), each sorted ascending, ordered by
    smallest member. *)

val cyclic_states : t -> bool array
(** [cyclic.(v)] iff vertex [v] belongs to a nontrivial SCC. *)

val find_state : t -> state -> int option

val state_label : state -> string
val edge_kind_to_string : edge_kind -> string
