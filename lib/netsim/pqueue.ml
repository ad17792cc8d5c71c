(* Two cooperating structures behind one queue:

   - A *monotone tail ring*: pushes whose priority is >= every priority
     already in the ring append to a circular array, two array stores
     per push and two loads per pop.

   - A binary min-heap over (priority, push sequence) for the other
     pushes, held in three parallel arrays.

   The dispatch rule is: append to the ring when the ring is non-empty
   and [prio >= ring-last] — or when the whole queue is empty; push to
   the heap otherwise.  In particular, once the ring drains while the
   heap still holds values, everything goes to the heap until the heap
   drains too.  So ring priorities are non-decreasing from head to
   tail, and any ring entry pushed *after* a heap entry has a strictly
   greater priority than that entry (the heap entry's priority was
   below the ring tail when it was pushed, and the tail only grows
   while the ring is non-empty).  When the ring head and the heap root
   tie on priority, the ring entry is therefore the older one: ties
   always dequeue from the ring, and the queue is stable.

   A popped heap slot is pointed at slot 0, which holds the first value
   the heap ever took, so the heap keeps no other popped value alive.
   Popped ring slots keep stale references to their values until a
   later push overwrites them; the ring is capped by its largest size,
   so that retention is bounded and short-lived in a running engine. *)

type 'a t = {
  (* binary heap in slots [1, h_len]: slot [i]'s children are [2i] and
     [2i + 1] *)
  mutable h_val : 'a array;
  mutable h_prio : int array;
  mutable h_seq : int array;
  mutable h_len : int;
  mutable next_seq : int;
  (* monotone tail ring; capacity is a power of two *)
  mutable r_val : 'a array;
  mutable r_prio : int array;
  mutable r_head : int;
  mutable r_len : int;
}

let create () =
  { h_val = [||]; h_prio = [||]; h_seq = [||]; h_len = 0; next_seq = 0; r_val = [||];
    r_prio = [||]; r_head = 0; r_len = 0 }

let length t = t.h_len + t.r_len
let is_empty t = t.h_len = 0 && t.r_len = 0

(* Both structures start with this many slots and double when full. *)
let first_capacity = 128

(* --- heap side --- *)

let heap_grow t v =
  let cap = Array.length t.h_val in
  let cap' = if cap = 0 then first_capacity else 2 * cap in
  let h_val = Array.make cap' (if cap = 0 then v else t.h_val.(0)) in
  let h_prio = Array.make cap' 0 and h_seq = Array.make cap' 0 in
  Array.blit t.h_val 0 h_val 0 cap;
  Array.blit t.h_prio 0 h_prio 0 cap;
  Array.blit t.h_seq 0 h_seq 0 cap;
  t.h_val <- h_val;
  t.h_prio <- h_prio;
  t.h_seq <- h_seq

let heap_set t i prio seq value =
  t.h_val.(i) <- value;
  t.h_prio.(i) <- prio;
  t.h_seq.(i) <- seq

(* Where the hole at [i] stops on its way up past every parent with a
   greater priority, moving those parents down.  The new entry's
   sequence is the largest, so an equal parent stays above it. *)
let rec sift_up t prio i =
  if i = 1 then 1
  else
    let p = i / 2 in
    if prio < t.h_prio.(p) then begin
      heap_set t i t.h_prio.(p) t.h_seq.(p) t.h_val.(p);
      sift_up t prio p
    end
    else i

let heap_push t prio value =
  let n = t.h_len + 1 in
  if n >= Array.length t.h_val then heap_grow t value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  heap_set t (sift_up t prio n) prio seq value;
  t.h_len <- n

(* Slot [c] dequeues before an entry at [(prio, seq)]. *)
let before t c prio seq =
  let pc = t.h_prio.(c) in
  pc < prio || (pc = prio && t.h_seq.(c) < seq)

(* Where the hole at [i] stops on its way down past every child that
   dequeues before [(prio, seq)], moving those children up; the heap
   holds [n] entries. *)
let rec sift_down t n prio seq i =
  let l = 2 * i in
  if l > n then i
  else
    let c = if l < n && before t (l + 1) t.h_prio.(l) t.h_seq.(l) then l + 1 else l in
    if before t c prio seq then begin
      heap_set t i t.h_prio.(c) t.h_seq.(c) t.h_val.(c);
      sift_down t n prio seq c
    end
    else i

let heap_pop t =
  let v = t.h_val.(1) in
  let n = t.h_len in
  t.h_len <- n - 1;
  if n > 1 then begin
    (* The last entry fills the root's hole. *)
    let prio = t.h_prio.(n) and seq = t.h_seq.(n) in
    heap_set t (sift_down t (n - 1) prio seq 1) prio seq t.h_val.(n)
  end;
  t.h_val.(n) <- t.h_val.(0);
  v

(* --- ring side --- *)

let ring_grow t v =
  let cap = Array.length t.r_val in
  let cap' = if cap = 0 then first_capacity else 2 * cap in
  let r_val = Array.make cap' v in
  let r_prio = Array.make cap' 0 in
  for k = 0 to t.r_len - 1 do
    let i = (t.r_head + k) land (cap - 1) in
    Array.unsafe_set r_val k (Array.unsafe_get t.r_val i);
    Array.unsafe_set r_prio k (Array.unsafe_get t.r_prio i)
  done;
  t.r_val <- r_val;
  t.r_prio <- r_prio;
  t.r_head <- 0

let ring_append t prio value =
  if t.r_len = Array.length t.r_val then ring_grow t value;
  (* Masked indices are < capacity by construction (power of two), so
     the unchecked accesses here and in the pop path are in range. *)
  let i = (t.r_head + t.r_len) land (Array.length t.r_val - 1) in
  Array.unsafe_set t.r_val i value;
  Array.unsafe_set t.r_prio i prio;
  t.r_len <- t.r_len + 1
  [@@inline]

let ring_last_prio t =
  Array.unsafe_get t.r_prio
    ((t.r_head + t.r_len - 1) land (Array.length t.r_val - 1))
  [@@inline]

let ring_pop t =
  let i = t.r_head in
  let v = Array.unsafe_get t.r_val i in
  t.r_head <- (i + 1) land (Array.length t.r_val - 1);
  t.r_len <- t.r_len - 1;
  v
  [@@inline]

(* --- public API --- *)

let push t ~prio value =
  if t.r_len > 0 then
    if prio >= ring_last_prio t then ring_append t prio value
    else heap_push t prio value
  else if t.h_len = 0 then ring_append t prio value
  else heap_push t prio value
  [@@inline]

let min_prio t =
  if t.h_len = 0 then
    if t.r_len = 0 then invalid_arg "Pqueue.min_prio: empty queue"
    else Array.unsafe_get t.r_prio t.r_head
  else if t.r_len = 0 then t.h_prio.(1)
  else Int.min (Array.unsafe_get t.r_prio t.r_head) t.h_prio.(1)
  [@@inline]

let pop_value t =
  if t.h_len = 0 then
    if t.r_len = 0 then invalid_arg "Pqueue.pop_value: empty queue"
    else ring_pop t
  else if t.r_len = 0 then heap_pop t
  else if
    (* Ties dequeue from the ring: see the stability argument above. *)
    Array.unsafe_get t.r_prio t.r_head <= t.h_prio.(1)
  then ring_pop t
  else heap_pop t
  [@@inline]
