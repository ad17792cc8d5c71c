type 'a outcome = Value of 'a | Raised of exn

type 'a run = { run_input : Ctx.input; run_outcome : 'a outcome }

type 'a result = {
  runs : 'a run list;
  distinct_paths : int;
  crashes : 'a run list;
  inputs_executed : int;
  solver_calls : int;
  solver_sat : int;
}

type limits = { max_inputs : int; max_branches : int; solver_nodes : int }

let default_limits = { max_inputs = 200; max_branches = 64; solver_nodes = 20_000 }

(* A structural fold over the whole path: [Hashtbl.hash] only samples a
   prefix of large structures, which collapsed distinct paths sharing
   their first branches. *)
let path_signature path =
  List.fold_left
    (fun h (e, taken) -> Expr.hash ~seed:(Expr.mix h (if taken then 1 else 0)) e)
    0x3f29ce484222325 path

(* A worklist entry: the input to execute and the generation bound —
   the index of the first branch this child is allowed to negate, which
   prevents rediscovering its ancestors' siblings. *)
type pending = { p_input : Ctx.input; p_bound : int }

let explore ?(limits = default_limits) ~seeds program =
  let queue = Queue.create () in
  let seen_inputs = Hashtbl.create 64 in
  let seen_paths = Hashtbl.create 64 in
  let runs = ref [] in
  let executed = ref 0 in
  let solver_calls = ref 0 in
  let solver_sat = ref 0 in
  let canon input = Ctx.input_update [] input in
  let remember input = Hashtbl.replace seen_inputs (canon input) () in
  let known input = Hashtbl.mem seen_inputs (canon input) in
  (* [seen_inputs] marks enqueued-or-executed inputs, so every queue
     entry is unique and runs exactly once. *)
  let enqueue entry =
    if not (known entry.p_input) then begin
      remember entry.p_input;
      Queue.add entry queue
    end
  in
  List.iter (fun s -> enqueue { p_input = s; p_bound = 0 }) seeds;
  if Queue.is_empty queue then enqueue { p_input = []; p_bound = 0 };
  while (not (Queue.is_empty queue)) && !executed < limits.max_inputs do
    let { p_input; p_bound } = Queue.pop queue in
    begin
      let ctx = Ctx.create p_input in
      let outcome =
        match program ctx with
        | v -> Value v
        | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
        | exception e -> Raised e
      in
      incr executed;
      let path = Ctx.path ctx in
      Hashtbl.replace seen_paths (path_signature path) ();
      runs := { run_input = p_input; run_outcome = outcome } :: !runs;
      (* Generational expansion.  Each branch's constraint as it was
         taken is built once per run; flipping branch [i] asks for
         [flipped :: held.(0) :: ... :: held.(i-1)], in path order. *)
      let arr = Array.of_list path in
      let upto = min (Array.length arr) limits.max_branches in
      let held =
        Array.init upto (fun j -> let e, taken = arr.(j) in if taken then e else Expr.negate e)
      in
      let rec prefix j acc = if j < 0 then acc else prefix (j - 1) (held.(j) :: acc) in
      for i = max 0 p_bound to upto - 1 do
        let cond, taken = arr.(i) in
        let flipped = if taken then Expr.negate cond else cond in
        incr solver_calls;
        match
          Solver.solve ~max_nodes:limits.solver_nodes (flipped :: prefix (i - 1) [])
        with
        | Solver.Sat model ->
            incr solver_sat;
            let overrides =
              List.map (fun ((v : Expr.var), x) -> (v.Expr.v_name, x)) model
            in
            let child = Ctx.input_update p_input overrides in
            enqueue { p_input = child; p_bound = i + 1 }
        | Solver.Unsat | Solver.Unknown -> ()
      done
    end
  done;
  let all_runs = List.rev !runs in
  { runs = all_runs;
    distinct_paths = Hashtbl.length seen_paths;
    crashes = List.filter (fun r -> match r.run_outcome with Raised _ -> true | Value _ -> false) all_runs;
    inputs_executed = !executed;
    solver_calls = !solver_calls;
    solver_sat = !solver_sat }
