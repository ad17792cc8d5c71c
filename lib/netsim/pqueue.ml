(* Two cooperating structures behind one queue:

   - A *monotone tail ring*: pushes whose priority is >= every priority
     already in the ring append to a circular array.  Discrete-event
     engines schedule overwhelmingly into the future, so the common
     case is two array stores per push and two loads per pop — no
     allocation, no pointer chasing.

   - A pairing heap of *batches* for out-of-order pushes: runs of
     values pushed at the same priority share one heap node and one
     value array, so a burst of same-timestamp events costs one meld
     and (amortized) zero allocations.  Exhausted batch records —
     array included — go on a small free list and are reused by later
     pushes, arena-style.

   Stability is by construction rather than by per-value sequence
   numbers.  The dispatch rule is: append to the ring when the ring is
   non-empty and [prio >= ring-last] — or when the whole queue is
   empty; push to the heap otherwise.  In particular, once the ring
   drains while the heap still holds values, everything goes to the
   heap until the heap drains too.  Two consequences:

   - Ring priorities are non-decreasing from head to tail, and any
     ring entry pushed *after* a heap batch was created has a strictly
     greater priority than that batch (the batch's priority was below
     the ring tail at creation, and the tail only grows while the ring
     is non-empty).  So when the ring head and the heap root tie on
     priority, the ring entry is necessarily the older one: ties
     always dequeue from the ring.

   - A same-priority ring append while a batch is live is impossible
     for the same reason, so a batch only ever receives appends while
     it is the most recent heap insertion ([last]) and its values form
     one contiguous run.  Batches carry a creation stamp to order
     equal-priority batches among themselves.

   Popped ring slots and recycled batch arrays keep stale references
   to their values until overwritten by a later push; both are capped,
   so the retention is bounded and short-lived in a running engine. *)

type 'a batch = {
  mutable prio : int;
  mutable stamp : int;  (* creation order among batches *)
  mutable values : 'a array;
  mutable head : int;  (* next slot to pop *)
  mutable count : int;  (* slots filled *)
  mutable children : 'a batch list;
}

type 'a t = {
  (* batched pairing heap *)
  mutable root : 'a batch;  (* meaningful iff [heap_n > 0] *)
  mutable heap_n : int;  (* values in the heap *)
  mutable last : 'a batch;  (* append target; [sentinel] when invalid *)
  mutable free : 'a batch list;
  mutable free_n : int;
  mutable next_stamp : int;
  sentinel : 'a batch;
  (* monotone tail ring; capacity is a power of two *)
  mutable r_val : 'a array;
  mutable r_prio : int array;
  mutable r_head : int;
  mutable r_len : int;
}

let max_free = 32

let create () =
  let sentinel =
    { prio = 0; stamp = 0; values = [||]; head = 0; count = 0; children = [] }
  in
  { root = sentinel; heap_n = 0; last = sentinel; free = []; free_n = 0;
    next_stamp = 0; sentinel; r_val = [||]; r_prio = [||]; r_head = 0;
    r_len = 0 }

let length t = t.heap_n + t.r_len
let is_empty t = t.heap_n = 0 && t.r_len = 0

(* --- heap side --- *)

let before a b = a.prio < b.prio || (a.prio = b.prio && a.stamp < b.stamp)

let meld a b =
  if before a b then begin
    a.children <- b :: a.children;
    a
  end
  else begin
    b.children <- a :: b.children;
    b
  end

(* Two-pass pairing over a non-empty child list: meld adjacent pairs
   left-to-right, then fold right-to-left.  No [option] wrapping on the
   hot path. *)
let rec merge_pairs = function
  | [ x ] -> x
  | a :: b :: rest -> (
      let ab = meld a b in
      match rest with [] -> ab | rest -> meld ab (merge_pairs rest))
  | [] -> assert false

let append b v =
  let n = b.count in
  let cap = Array.length b.values in
  if n = cap then begin
    let values = Array.make (if cap = 0 then 4 else 2 * cap) v in
    Array.blit b.values 0 values 0 n;
    b.values <- values
  end
  else b.values.(n) <- v;
  b.count <- n + 1

let acquire t prio v =
  match t.free with
  | b :: tl ->
      t.free <- tl;
      t.free_n <- t.free_n - 1;
      b.prio <- prio;
      b.head <- 0;
      b.count <- 0;
      append b v;
      b
  | [] ->
      { prio; stamp = 0; values = Array.make 1 v; head = 0; count = 1;
        children = [] }

let heap_push t prio value =
  if t.last != t.sentinel && t.last.prio = prio then append t.last value
  else begin
    let b = acquire t prio value in
    b.stamp <- t.next_stamp;
    t.next_stamp <- t.next_stamp + 1;
    if t.heap_n = 0 then t.root <- b else t.root <- meld b t.root;
    t.last <- b
  end;
  t.heap_n <- t.heap_n + 1

let recycle t b =
  if t.last == b then t.last <- t.sentinel;
  b.children <- [];
  if t.free_n < max_free then begin
    t.free <- b :: t.free;
    t.free_n <- t.free_n + 1
  end

let heap_pop t =
  let b = t.root in
  let v = b.values.(b.head) in
  b.head <- b.head + 1;
  t.heap_n <- t.heap_n - 1;
  if b.head = b.count then begin
    (* Exhausted: every remaining heap value lives under the children. *)
    (match b.children with [] -> () | ch -> t.root <- merge_pairs ch);
    recycle t b
  end;
  v

(* --- ring side --- *)

let ring_grow t v =
  let cap = Array.length t.r_val in
  let cap' = if cap = 0 then 128 else 2 * cap in
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
  else if t.heap_n = 0 then ring_append t prio value
  else heap_push t prio value
  [@@inline]

let min_prio t =
  if t.heap_n = 0 then
    if t.r_len = 0 then invalid_arg "Pqueue.min_prio: empty queue"
    else Array.unsafe_get t.r_prio t.r_head
  else if t.r_len = 0 then t.root.prio
  else
    let rp = Array.unsafe_get t.r_prio t.r_head in
    if rp < t.root.prio then rp else t.root.prio
  [@@inline]

let pop_value t =
  if t.heap_n = 0 then
    if t.r_len = 0 then invalid_arg "Pqueue.pop_value: empty queue"
    else ring_pop t
  else if t.r_len = 0 then heap_pop t
  else if
    (* Ties dequeue from the ring: see the stability argument above. *)
    Array.unsafe_get t.r_prio t.r_head <= t.root.prio
  then ring_pop t
  else heap_pop t
  [@@inline]

let pop t =
  if is_empty t then None
  else
    let prio = min_prio t in
    Some (prio, pop_value t)
