(** Directed link model: propagation latency, jitter and loss.

    Channels are reliable and FIFO (the systems we simulate run over
    TCP): a "lost" transmission is modelled as one or more retransmit
    timeouts added to the delivery delay, never as an actual drop.

    {b Loss understatement bound.} The retransmit loop is capped at
    [max_retries] attempts, after which the message is delivered anyway.
    A message therefore experiences at most
    [max_retries * retransmit] of loss-induced delay, and the chance
    that the cap truncates a loss streak is [loss ^ max_retries] — i.e.
    the link faithfully models any configured loss probability up to
    about [1 - (1 - loss) ^ max_retries]; configured loss beyond that is
    understated.  With the default [max_retries = 8], a [loss] of 0.5
    is truncated with probability [0.5^8 ≈ 0.4%]; raise [max_retries]
    when simulating very lossy links whose tail delays matter.  Every
    truncated streak bumps the registry counter
    [link.retransmit_cap_hits], so the understatement is observable per
    run.

    Actual unavailability (messages that never arrive) is modelled one
    level up, by {!Network.set_link_down} / {!Network.set_node_down}. *)

type t = {
  latency : Time.span;  (** base one-way propagation delay *)
  jitter : Time.span;  (** uniform extra delay in [\[0, jitter\]] *)
  loss : float;  (** per-transmission loss probability, in [\[0, 1)] *)
  retransmit : Time.span;  (** delay added per lost transmission *)
  max_retries : int;  (** cap on simulated retransmissions per message *)
}

val make :
  ?jitter:Time.span ->
  ?loss:float ->
  ?retransmit:Time.span ->
  ?max_retries:int ->
  Time.span ->
  t
(** [make latency] — defaults: no jitter, no loss, 300 ms retransmit,
    at most 8 retries (see the loss understatement bound above). *)

val ideal : t
(** 1 ms, no jitter, no loss. *)

val delay : t -> Rng.t -> Time.span
(** Sample a delivery delay (includes simulated retransmissions, capped
    at [max_retries]). *)
