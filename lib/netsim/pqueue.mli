(** Imperative stable priority queue.

    A ring buffer absorbs the monotone case — pushes at or after the
    current tail priority — in O(1); everything else goes to a binary
    min-heap over (priority, push order) held in three parallel arrays
    that double when full.  Neither side allocates per entry.  Entries
    with equal priority dequeue in insertion order (stability): the
    dispatch rule makes ring entries provably older than any
    equal-priority heap entry, and heap entries tie-break on their push
    order.  That keeps the discrete-event engine deterministic. *)

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
