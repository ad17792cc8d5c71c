type 'a task = {
  result : ('a, exn * Printexc.raw_backtrace) result option Atomic.t;
  domain : unit Domain.t;
}

let m_timeouts = lazy (Telemetry.Metrics.counter "pool.await_timeouts")

let submit f =
  let result = Atomic.make None in
  let run () =
    Atomic.set result
      (Some
         (match f () with
         | v -> Ok v
         | exception e -> Error (e, Printexc.get_raw_backtrace ())))
  in
  { result; domain = Domain.spawn run }

let await_timeout task ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  (* The stdlib has no timed [Domain.join], so poll the result cell. *)
  let rec poll () =
    match Atomic.get task.result with
    | Some r -> (
        Domain.join task.domain;
        match r with
        | Ok v -> Some v
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    | None when Unix.gettimeofday () >= deadline ->
        Telemetry.Metrics.incr (Lazy.force m_timeouts);
        None
    | None ->
        Unix.sleepf 0.001;
        poll ()
  in
  poll ()
