type quarantine = {
  qu_slot : int;
  qu_step : int;
  qu_strikes : int;
  qu_until : int;
}

type health = {
  mutable h_strikes : int;
  mutable h_until : int;  (* quarantined while step < h_until *)
  mutable h_quarantines : int;  (* drives the exponential backoff *)
  mutable h_parked : bool;  (* currently quarantined (for the release event) *)
}

type t = {
  t_health : health array;
  t_max_strikes : int;
  t_backoff : int;
  mutable t_events : quarantine list;  (* newest first *)
}

let create ?(max_strikes = 3) ?(backoff = 2) n =
  { t_health =
      Array.init (max 0 n) (fun _ ->
          { h_strikes = 0; h_until = 0; h_quarantines = 0; h_parked = false });
    t_max_strikes = max 1 max_strikes;
    t_backoff = max 1 backoff;
    t_events = [] }

let quarantined t ~slot ~step = t.t_health.(slot).h_until > step

let release_due t ~step =
  let released = ref [] in
  Array.iteri
    (fun idx h ->
      if h.h_parked && h.h_until <= step then begin
        h.h_parked <- false;
        released := idx :: !released
      end)
    t.t_health;
  List.rev !released

let record t ~slot ~step ~ok =
  let h = t.t_health.(slot) in
  if ok then begin
    h.h_strikes <- 0;
    None
  end
  else begin
    h.h_strikes <- h.h_strikes + 1;
    if h.h_strikes < t.t_max_strikes then None
    else begin
      let len = t.t_backoff * (1 lsl h.h_quarantines) in
      h.h_until <- step + 1 + len;
      h.h_quarantines <- h.h_quarantines + 1;
      h.h_strikes <- 0;
      h.h_parked <- true;
      let q =
        { qu_slot = slot; qu_step = step; qu_strikes = t.t_max_strikes;
          qu_until = h.h_until }
      in
      t.t_events <- q :: t.t_events;
      Some q
    end
  end
