(** Imperative stable priority queue.

    A ring buffer absorbs the common monotone case — pushes at or
    after the current tail priority — in O(1); everything else goes to
    a pairing heap of same-priority *batches* (values pushed
    back-to-back at one priority share a heap node and value array,
    recycled through a free list), so bursts of same-timestamp events
    cost near-zero allocation.  Entries with equal priority dequeue in
    insertion order (stability) without per-entry sequence numbers —
    the dispatch rule makes ring entries provably older than any
    equal-priority heap batch — which keeps the discrete-event engine
    deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> prio:int -> 'a -> unit
(** Lower [prio] dequeues first. *)

val min_prio : 'a t -> int
(** Priority of the next entry to dequeue, without allocating.
    @raise Invalid_argument on an empty queue. *)

val pop_value : 'a t -> 'a
(** Removes and returns the minimum entry, without allocating.
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum entry as [(prio, value)]. *)
