type state = Pending | Cancelled | Fired

type timer = { mutable state : state; action : unit -> unit; live : int ref }

type t = {
  mutable clock : Time.t;
  queue : timer Pqueue.t;
  root_rng : Rng.t;
  live : int ref;
  mutable stopping : bool;
}

let create ?(seed = 0x51CE) () =
  { clock = Time.zero; queue = Pqueue.create (); root_rng = Rng.create seed;
    live = ref 0; stopping = false }

let now t = t.clock
let rng t = t.root_rng

let at t when_ f =
  let when_ = if Time.(when_ < t.clock) then t.clock else when_ in
  let timer = { state = Pending; action = f; live = t.live } in
  Pqueue.push t.queue ~prio:(Time.to_us when_) timer;
  incr t.live;
  timer

let schedule t ~after f = at t (Time.add t.clock (max 0 after)) f

let cancel = function
  | { state = Pending; _ } as timer ->
      timer.state <- Cancelled;
      decr timer.live
  | { state = Cancelled | Fired; _ } -> ()

let pending t = !(t.live)
let queued t = Pqueue.length t.queue

(* The stepping path is allocation-free: [min_prio]/[pop_value] avoid
   the [Some (prio, value)] wrapping of [Pqueue.pop], and the batched
   queue reuses its cells, so draining same-timestamp event bursts
   costs no minor words beyond what the actions themselves allocate.
   Cancelled timers still occupy a queue slot and still count as a
   step — [max_events] accounting must not depend on cancellation
   timing or corpus replays would diverge. *)
let step t =
  if Pqueue.is_empty t.queue then false
  else begin
    let prio = Pqueue.min_prio t.queue in
    let timer = Pqueue.pop_value t.queue in
    (match timer.state with
    | Cancelled | Fired -> ()
    | Pending ->
        timer.state <- Fired;
        decr t.live;
        t.clock <- Time.of_us prio;
        timer.action ());
    true
  end

let run ?until ?max_events t =
  t.stopping <- false;
  let horizon = match until with Some u -> Time.to_us u | None -> max_int in
  let limit = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  let continue = ref true in
  (* [step] inlined so the queue's minimum is inspected once per event. *)
  while !continue do
    if t.stopping || !fired >= limit || Pqueue.is_empty t.queue then
      continue := false
    else begin
      let prio = Pqueue.min_prio t.queue in
      if prio > horizon then continue := false
      else begin
        let timer = Pqueue.pop_value t.queue in
        (match timer.state with
        | Cancelled | Fired -> ()
        | Pending ->
            timer.state <- Fired;
            decr t.live;
            t.clock <- Time.of_us prio;
            timer.action ());
        incr fired
      end
    end
  done;
  (* When bounded by [until], advance the clock to the horizon so repeated
     bounded runs observe monotonic time. *)
  match until with
  | Some u when Time.(t.clock < u) && not t.stopping -> t.clock <- u
  | Some _ | None -> ()

let stop t = t.stopping <- true
