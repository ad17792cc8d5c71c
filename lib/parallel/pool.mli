(** A fixed-size domain pool for embarrassingly parallel fan-out.

    Design points, in order of importance:

    - {b Deterministic merges.} [map_list] returns results in input
      order regardless of completion order, so callers that fold the
      results observe exactly the sequential fold.  With [domains = 1]
      jobs additionally {e execute} in submission order on the calling
      domain, so the degenerate pool is bit-identical to a [List.map].
    - {b Help-first await.} [await] drains pending jobs from the queue
      while its task is incomplete.  Nested submission (a pool job that
      itself submits to the same pool and awaits) therefore cannot
      deadlock: the blocked awaiter executes the queued children
      itself.  This is what lets the explorer fan out across peers and,
      inside each peer, across derived inputs, with one shared pool.
    - {b No work stealing.} A single mutex-protected FIFO is ample for
      our job granularity (every job spawns and replays a whole shadow
      topology, i.e. hundreds of microseconds at minimum), and keeps
      the ordering semantics trivial to reason about. *)

type t
(** A pool of [size t] domains: [size t - 1] spawned workers plus the
    caller, which participates whenever it awaits. *)

type 'a task

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains
    ([domains] defaults to [Domain.recommended_domain_count ()];
    values [< 1] are clamped to [1], giving a purely sequential
    pool). *)

val size : t -> int

val submit : t -> (unit -> 'a) -> 'a task
(** Enqueue a job.  Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a task -> 'a
(** Block until the task completes, helping to drain the pool's queue
    in the meantime.  Re-raises (with its original backtrace) any
    exception the job raised. *)

val await_timeout : ?help:bool -> 'a task -> timeout_s:float -> 'a option
(** Like {!await} but gives up after [timeout_s] wall-clock seconds,
    returning [None].  The job itself is {e not} cancelled — OCaml
    domains cannot be killed — so an abandoned job may still complete
    later; the caller has merely stopped waiting for it.

    By default the caller helps drain the queue while waiting, then
    polls.  Pass [~help:false] to poll without helping: required when
    the caller is using the timeout as a watchdog over the awaited job
    itself, since a helping caller may steal that very job from the
    queue and execute it inline, at which point no timeout can fire
    until the job finishes on its own. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ?chunk pool f xs] runs [f] on every element concurrently
    and returns the results in input order.  If several jobs raise, the
    exception of the {e lowest-indexed} failing element is re-raised —
    again matching what sequential [List.map] would have done.

    [chunk] (default [1]) groups [chunk] consecutive elements into one
    pool job.  Fine-grained work — think tens of microseconds per
    element — drowns in submit/await synchronisation at [chunk = 1];
    batching restores the compute-to-coordination ratio.  Results,
    ordering and exception choice are identical for every [chunk]
    value, so callers can tune it freely. *)

val shutdown : t -> unit
(** Finish queued jobs, then join all workers.  Idempotent. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], robust to exceptions. *)
