(* The parallel exploration engine: pool semantics (ordering, exception
   propagation, nested submission), solver memoization, and the
   sequential/parallel determinism contract of explore_node. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Parallel.Pool                                                       *)
(* ------------------------------------------------------------------ *)

let pool_map_list_ordering () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      check (Alcotest.list Alcotest.int) "results in input order"
        (List.map (fun i -> i * i) xs)
        (Parallel.Pool.map_list pool (fun i -> i * i) xs));
  (* Degenerate pool: everything runs inline on the caller. *)
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      check (Alcotest.list Alcotest.int) "sequential pool preserves order"
        [ 0; 2; 4; 6 ]
        (Parallel.Pool.map_list pool (fun i -> 2 * i) [ 0; 1; 2; 3 ]))

let pool_exception_propagation () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest-index failure is re-raised" (Failure "boom7")
        (fun () ->
          ignore
            (Parallel.Pool.map_list pool
               (fun i -> if i >= 7 then failwith (Printf.sprintf "boom%d" i) else i)
               (List.init 32 Fun.id)));
      (* The pool survives a failed batch. *)
      check (Alcotest.list Alcotest.int) "pool usable after failure" [ 1; 2; 3 ]
        (Parallel.Pool.map_list pool Fun.id [ 1; 2; 3 ]))

(* Chunking is a throughput knob, not a semantics knob: every chunk
   size must produce the sequential result, in order, with the same
   exception choice. *)
let pool_chunk_determinism () =
  let xs = List.init 203 (fun i -> i - 100) in
  let f i = (i * i) + (3 * i) in
  let want = List.map f xs in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun chunk ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "chunk=%d equals sequential map" chunk)
            want
            (Parallel.Pool.map_list ~chunk pool f xs))
        [ 1; 7; 64 ];
      (* Exception semantics: the first failing element in input order
         wins regardless of how the list was chunked. *)
      List.iter
        (fun chunk ->
          Alcotest.check_raises
            (Printf.sprintf "chunk=%d raises first failure" chunk)
            (Failure "boom11")
            (fun () ->
              ignore
                (Parallel.Pool.map_list ~chunk pool
                   (fun i ->
                     if i >= 11 then failwith (Printf.sprintf "boom%d" i)
                     else i)
                   (List.init 40 Fun.id))))
        [ 1; 7; 64 ]);
  (* Chunked dispatch composes with the inline degenerate pool too. *)
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      check (Alcotest.list Alcotest.int) "chunk=7 on a sequential pool" want
        (Parallel.Pool.map_list ~chunk:7 pool f xs))

(* A job that fans out on the same pool and awaits: help-first await
   must keep this deadlock-free even with every worker occupied. *)
let pool_nested_submission () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let outer =
        Parallel.Pool.map_list pool
          (fun i ->
            let inner =
              Parallel.Pool.map_list pool (fun j -> (10 * i) + j) [ 0; 1; 2 ]
            in
            List.fold_left ( + ) 0 inner)
          (List.init 8 Fun.id)
      in
      check (Alcotest.list Alcotest.int) "nested fan-out"
        (List.init 8 (fun i -> (30 * i) + 3))
        outer)

let pool_submit_await () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      let tasks =
        List.init 16 (fun i -> Parallel.Pool.submit pool (fun () -> i * 3))
      in
      check (Alcotest.list Alcotest.int) "await returns job results"
        (List.init 16 (fun i -> i * 3))
        (List.map Parallel.Pool.await tasks);
      check Alcotest.int "pool size" 3 (Parallel.Pool.size pool))

let pool_await_timeout () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      (* A finished job: timeout path returns the value. *)
      let quick = Parallel.Pool.submit pool (fun () -> 41 + 1) in
      check (Alcotest.option Alcotest.int) "completed job" (Some 42)
        (Parallel.Pool.await_timeout quick ~timeout_s:5.0);
      (* A job that outlives its deadline: None, and the pool survives.
         Wait for a worker to pick it up first — the timed wait helps
         with queued jobs, and the caller must not adopt this one. *)
      let started = Atomic.make false in
      let gate = Atomic.make false in
      let slow =
        Parallel.Pool.submit pool
          (fun () ->
            Atomic.set started true;
            while not (Atomic.get gate) do Domain.cpu_relax () done;
            "done")
      in
      while not (Atomic.get started) do Domain.cpu_relax () done;
      check (Alcotest.option Alcotest.string) "deadline expired" None
        (Parallel.Pool.await_timeout slow ~timeout_s:0.05);
      Atomic.set gate true;
      (* The job was not cancelled — a later await still collects it. *)
      check Alcotest.string "job finished after release" "done"
        (Parallel.Pool.await slow);
      (* Failures propagate through the timed wait too. *)
      let bad = Parallel.Pool.submit pool (fun () -> failwith "timed boom") in
      Alcotest.check_raises "exception re-raised" (Failure "timed boom")
        (fun () -> ignore (Parallel.Pool.await_timeout bad ~timeout_s:5.0));
      (* Helping: the timed wait drains queued work instead of spinning,
         so a single-worker backlog still completes within the deadline. *)
      let tasks =
        List.init 64 (fun i -> Parallel.Pool.submit pool (fun () -> i))
      in
      List.iteri
        (fun i task ->
          check (Alcotest.option Alcotest.int) "backlog drained via helping"
            (Some i)
            (Parallel.Pool.await_timeout task ~timeout_s:5.0))
        tasks)

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
  (* Concurrent solves from pool workers must not lose increments. *)
  let open Concolic.Expr in
  Concolic.Solver.set_cache_enabled false;
  Concolic.Solver.reset_stats ();
  let n = 64 in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map_list pool
           (fun i ->
             let x = var "race_x" ~lo:0 ~hi:4095 in
             Concolic.Solver.solve
               [ Eq (Var x, Const (i mod 17)); Lt (Var x, Const 4096) ])
           (List.init n Fun.id)));
  Concolic.Solver.set_cache_enabled true;
  let st = Concolic.Solver.stats () in
  let total =
    st.Concolic.Solver.solved_sat + st.Concolic.Solver.solved_unsat
    + st.Concolic.Solver.solved_unknown
  in
  check Alcotest.int "every solve counted exactly once" n total

(* ------------------------------------------------------------------ *)
(* Parallel exploration determinism                                    *)
(* ------------------------------------------------------------------ *)

let fault_strings x =
  List.sort String.compare
    (List.map
       (fun (f : Dice.Fault.t) -> Format.asprintf "%a" Dice.Fault.pp f)
       x.Dice.Explorer.x_faults)

let explore_gadget ?pool () =
  (* Quiescent gadget deployment with a seeded crash bug: exploration
     finds real faults, and the live system does not drift between the
     sequential and the parallel run. *)
  let graph = Topology.Gadget.embedded () in
  let build = Topology.Build.deploy graph in
  Topology.Build.start_all build;
  assert (Topology.Build.converge build);
  let gt = Dice.Checks.ground_truth_of_graph graph in
  let node = Topology.Gadget.victim in
  Dice.Inject.apply build
    (Dice.Inject.Crash_bug { at = node; community = Bgp.Community.make 64111 1 });
  let cut =
    Snapshot.Cut.create
      ~speakers:(fun id -> Topology.Build.speaker build id)
      build.Topology.Build.net
  in
  let params =
    { Dice.Explorer.default_params with
      Dice.Explorer.limits =
        { Concolic.Engine.max_inputs = 16; max_branches = 24; solver_nodes = 8_000 };
      fuzz_extra = 4;
      shadow_budget = 15_000 }
  in
  Dice.Explorer.explore_node ~params ?pool ~build ~cut ~gt ~node ()

let explore_node_parallel_deterministic () =
  let seq = explore_gadget () in
  let par = Parallel.Pool.with_pool ~domains:4 (fun pool -> explore_gadget ~pool ()) in
  check Alcotest.int "reported pool size" 4 par.Dice.Explorer.x_domains;
  Alcotest.(check bool) "exploration found faults" true
    (seq.Dice.Explorer.x_faults <> []);
  check (Alcotest.list Alcotest.string) "identical deduped fault set"
    (fault_strings seq) (fault_strings par);
  check Alcotest.int "identical input count" seq.Dice.Explorer.x_inputs
    par.Dice.Explorer.x_inputs;
  check Alcotest.int "identical distinct-path count"
    seq.Dice.Explorer.x_distinct_paths par.Dice.Explorer.x_distinct_paths;
  check Alcotest.int "identical shadow-run count" seq.Dice.Explorer.x_shadow_runs
    par.Dice.Explorer.x_shadow_runs;
  check Alcotest.int "identical crash count" seq.Dice.Explorer.x_crashes
    par.Dice.Explorer.x_crashes

let suite =
  [ ("pool: map_list ordering", `Quick, pool_map_list_ordering);
    ("pool: chunk sizes are semantically invisible", `Quick,
     pool_chunk_determinism);
    ("pool: exception propagation", `Quick, pool_exception_propagation);
    ("pool: nested submission is deadlock-free", `Quick, pool_nested_submission);
    ("pool: submit/await", `Quick, pool_submit_await);
    ("pool: await_timeout", `Quick, pool_await_timeout);
    ("solver: cache is semantically transparent", `Quick, solver_cache_transparent);
    ("solver: repeated-prefix workload hit rate", `Quick, solver_cache_hit_rate);
    ("solver: atomic stats under the pool", `Quick, solver_stats_race_free);
    ("explorer: domains=4 matches domains=1 on the gadget", `Slow,
     explore_node_parallel_deterministic) ]
