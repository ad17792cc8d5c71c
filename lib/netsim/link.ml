type t = {
  latency : Time.span;
  jitter : Time.span;
  loss : float;
  retransmit : Time.span;
  max_retries : int;
}

let make ?(jitter = 0) ?(loss = 0.) ?(retransmit = Time.span_ms 300)
    ?(max_retries = 8) latency =
  if latency < 0 || jitter < 0 || retransmit < 0 then
    invalid_arg "Link.make: negative delay";
  if loss < 0. || loss >= 1. then invalid_arg "Link.make: loss must be in [0,1)";
  if max_retries < 0 then invalid_arg "Link.make: negative max_retries";
  { latency; jitter; loss; retransmit; max_retries }

let ideal = make (Time.span_ms 1)

let cap_hits = lazy (Telemetry.Metrics.counter "link.retransmit_cap_hits")

let delay t rng =
  let base = t.latency + (if t.jitter > 0 then Rng.int rng (t.jitter + 1) else 0) in
  (* Each lost transmission costs one retransmit timeout; bound the number
     of retries so a pathological RNG stream cannot stall the channel.
     Cap hits are counted so the loss-understatement bound documented in
     the interface is observable, not only derivable. *)
  let rec retries n acc =
    if t.loss <= 0. then acc
    else if n >= t.max_retries then begin
      Telemetry.Metrics.incr (Lazy.force cap_hits);
      acc
    end
    else if Rng.chance rng t.loss then retries (n + 1) (acc + t.retransmit)
    else acc
  in
  base + retries 0 0
