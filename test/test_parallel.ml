(* The campaign watchdog (Parallel.Pool: a job on a worker domain,
   awaited under a timeout) and solver memoization. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Parallel.Pool                                                       *)
(* ------------------------------------------------------------------ *)

let pool_submit_await () =
  let tasks = List.init 4 (fun i -> Parallel.Pool.submit (fun () -> i * 3)) in
  check (Alcotest.list (Alcotest.option Alcotest.int)) "await returns job results"
    (List.init 4 (fun i -> Some (i * 3)))
    (List.map (fun t -> Parallel.Pool.await_timeout t ~timeout_s:30.0) tasks)

let pool_await_timeout () =
  (* A finished job: timeout path returns the value. *)
  let quick = Parallel.Pool.submit (fun () -> 41 + 1) in
  check (Alcotest.option Alcotest.int) "completed job" (Some 42)
    (Parallel.Pool.await_timeout quick ~timeout_s:5.0);
  (* A job that outlives its deadline: None, and the worker keeps
     running it. *)
  let started = Atomic.make false in
  let gate = Atomic.make false in
  let slow =
    Parallel.Pool.submit (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do Domain.cpu_relax () done;
        "done")
  in
  while not (Atomic.get started) do Domain.cpu_relax () done;
  check (Alcotest.option Alcotest.string) "deadline expired" None
    (Parallel.Pool.await_timeout slow ~timeout_s:0.05);
  (* A later job runs beside the wedged one. *)
  let beside = Parallel.Pool.submit (fun () -> "beside") in
  check (Alcotest.option Alcotest.string) "job beside a wedged worker"
    (Some "beside")
    (Parallel.Pool.await_timeout beside ~timeout_s:5.0);
  Atomic.set gate true;
  (* The job was not cancelled — a later await still collects it. *)
  check (Alcotest.option Alcotest.string) "job finished after release"
    (Some "done")
    (Parallel.Pool.await_timeout slow ~timeout_s:5.0);
  (* Failures propagate through the timed wait too. *)
  let bad = Parallel.Pool.submit (fun () -> failwith "timed boom") in
  Alcotest.check_raises "exception re-raised" (Failure "timed boom") (fun () ->
      ignore (Parallel.Pool.await_timeout bad ~timeout_s:5.0))

(* ------------------------------------------------------------------ *)
(* Solver memoization                                                  *)
(* ------------------------------------------------------------------ *)

let random_constraint_set rng =
  let open Concolic.Expr in
  let x = var "memo_x" ~lo:0 ~hi:1023 in
  let y = var "memo_y" ~lo:0 ~hi:255 in
  let c () = Const (Netsim.Rng.int_in rng 0 300) in
  let base =
    [ Lt (Var x, c ()); Le (c (), Var y); Eq (Add (Var x, Var y), c ()) ]
  in
  (* Sometimes add a contradiction-prone conjunct for Unsat coverage. *)
  if Netsim.Rng.int_in rng 0 1 = 0 then Lt (Var y, Const 0) :: base else base

let outcome_equal (a : Concolic.Solver.outcome) (b : Concolic.Solver.outcome) =
  match (a, b) with
  | Concolic.Solver.Sat m1, Concolic.Solver.Sat m2 -> m1 = m2
  | Concolic.Solver.Unsat, Concolic.Solver.Unsat -> true
  | Concolic.Solver.Unknown, Concolic.Solver.Unknown -> true
  | _ -> false

let solver_cache_transparent () =
  let rng = Netsim.Rng.create 0xCAFE in
  let sets = List.init 50 (fun _ -> random_constraint_set rng) in
  Concolic.Solver.clear_cache ();
  List.iter
    (fun constraints ->
      Concolic.Solver.set_cache_enabled false;
      let off = Concolic.Solver.solve constraints in
      Concolic.Solver.set_cache_enabled true;
      let cold = Concolic.Solver.solve constraints in
      let warm = Concolic.Solver.solve constraints in
      Alcotest.(check bool) "cache off vs cold miss" true (outcome_equal off cold);
      Alcotest.(check bool) "cold miss vs warm hit" true (outcome_equal cold warm))
    sets

let solver_cache_hit_rate () =
  let open Concolic.Expr in
  let x = var "memo_p" ~lo:0 ~hi:65535 in
  let y = var "memo_q" ~lo:0 ~hi:255 in
  (* A generational-search-shaped workload: a shared prefix of path
     conditions, re-solved with successive flipped tails, then the
     whole batch re-solved (as the next exploration round would). *)
  let prefix = [ Lt (Var x, Const 4096); Le (Const 3, Var y) ] in
  let tails = List.init 8 (fun i -> Eq (Var y, Const (i + 3))) in
  let batch = List.map (fun t -> t :: prefix) tails in
  Concolic.Solver.clear_cache ();
  Concolic.Solver.reset_stats ();
  List.iter (fun c -> ignore (Concolic.Solver.solve c)) batch;
  let misses_after_first = (Concolic.Solver.stats ()).Concolic.Solver.cache_misses in
  List.iter (fun c -> ignore (Concolic.Solver.solve c)) batch;
  (* Permutations of a set share the entry: order canonicalization. *)
  List.iter (fun c -> ignore (Concolic.Solver.solve (List.rev c))) batch;
  let hits = (Concolic.Solver.stats ()).Concolic.Solver.cache_hits in
  check Alcotest.int "first pass is all misses" (List.length batch) misses_after_first;
  check Alcotest.int "repeat passes are all hits" (2 * List.length batch) hits;
  check Alcotest.int "no extra solves"
    misses_after_first
    (Concolic.Solver.stats ()).Concolic.Solver.cache_misses

let solver_stats_race_free () =
  (* Concurrent solves from worker domains must not lose increments. *)
  let open Concolic.Expr in
  Concolic.Solver.set_cache_enabled false;
  Concolic.Solver.reset_stats ();
  let workers = 4 and per_worker = 16 in
  let n = workers * per_worker in
  let solve_from w () =
    for i = 0 to per_worker - 1 do
      let x = var "race_x" ~lo:0 ~hi:4095 in
      ignore
        (Concolic.Solver.solve
           [ Eq (Var x, Const (((w * per_worker) + i) mod 17));
             Lt (Var x, Const 4096) ])
    done
  in
  List.init workers (fun w -> Parallel.Pool.submit (solve_from w))
  |> List.iter (fun t ->
         check (Alcotest.option Alcotest.unit) "worker finished" (Some ())
           (Parallel.Pool.await_timeout t ~timeout_s:60.0));
  Concolic.Solver.set_cache_enabled true;
  let st = Concolic.Solver.stats () in
  let total =
    st.Concolic.Solver.solved_sat + st.Concolic.Solver.solved_unsat
    + st.Concolic.Solver.solved_unknown
  in
  check Alcotest.int "every solve counted exactly once" n total

let suite =
  [ ("pool: submit/await", `Quick, pool_submit_await);
    ("pool: await_timeout", `Quick, pool_await_timeout);
    ("solver: cache is semantically transparent", `Quick, solver_cache_transparent);
    ("solver: repeated-prefix workload hit rate", `Quick, solver_cache_hit_rate);
    ("solver: atomic stats under the pool", `Quick, solver_stats_race_free) ]
