(* Concolic engine: expressions, intervals, solver, exploration. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

open Concolic

(* --- Expr --- *)

let expr_eval () =
  let x = Expr.var "te_x" ~lo:0 ~hi:100 in
  let env v = if v = x then 7 else 0 in
  let e = Expr.(Add (Var x, Const 3)) in
  check Alcotest.int "7+3" 10 (Expr.eval env e);
  check Alcotest.int "lt true" 1 (Expr.eval env Expr.(Lt (Var x, Const 8)));
  check Alcotest.int "band" 4 (Expr.eval env Expr.(Band (Var x, Const 12)));
  check Alcotest.int "not" 0 (Expr.eval env Expr.(Not (Const 5)))

let expr_negate () =
  let x = Expr.var "te_x" ~lo:0 ~hi:100 in
  let env v = if v = x then 7 else 0 in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Expr.to_string e ^ " negation flips")
        (Expr.is_true env e)
        (not (Expr.is_true env (Expr.negate e))))
    [ Expr.(Lt (Var x, Const 8));
      Expr.(Le (Const 9, Var x));
      Expr.(Eq (Var x, Const 7));
      Expr.(Not (Eq (Var x, Const 7)));
      Expr.(And (Const 1, Eq (Var x, Const 7))) ]

let expr_vars_dedup () =
  let x = Expr.var "te_x" ~lo:0 ~hi:100 in
  let e = Expr.(Add (Var x, Mul (Var x, Const 2))) in
  check Alcotest.int "x counted once" 1 (List.length (Expr.vars e))

let var_interning () =
  let a = Expr.var "te_same" ~lo:0 ~hi:5 in
  let b = Expr.var "te_same" ~lo:0 ~hi:5 in
  Alcotest.(check bool) "same id" true (a.Expr.v_id = b.Expr.v_id);
  let c = Expr.var "te_same" ~lo:0 ~hi:9 in
  Alcotest.(check bool) "different domain, different var" true (a.Expr.v_id <> c.Expr.v_id)

(* Random expressions over a few variables (one domain per name),
   deep enough to pass any bounded-prefix sampling. *)
let gen_expr =
  let open QCheck.Gen in
  let xs = [| Expr.var "th_x" ~lo:0 ~hi:60; Expr.var "th_y" ~lo:0 ~hi:255;
              Expr.var "th_z" ~lo:(-5) ~hi:5 |] in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ map (fun i -> Expr.Var xs.(i)) (int_bound 2);
               map (fun c -> Expr.Const c) (int_range (-3) 70) ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (1, leaf);
               (1, map (fun a -> Expr.Not a) sub);
               ( 6,
                 map3
                   (fun k a b ->
                     match k with
                     | 0 -> Expr.Add (a, b) | 1 -> Expr.Sub (a, b) | 2 -> Expr.Mul (a, b)
                     | 3 -> Expr.Band (a, b) | 4 -> Expr.Eq (a, b) | 5 -> Expr.Lt (a, b)
                     | 6 -> Expr.Le (a, b) | 7 -> Expr.And (a, b) | _ -> Expr.Or (a, b))
                   (int_bound 8) sub sub ) ])

(* A physically fresh copy: structurally equal, sharing no node. *)
let rec copy (e : Expr.t) : Expr.t =
  match e with
  | Expr.Const n -> Expr.Const n
  | Expr.Var v -> Expr.Var v
  | Expr.Add (a, b) -> Expr.Add (copy a, copy b)
  | Expr.Sub (a, b) -> Expr.Sub (copy a, copy b)
  | Expr.Mul (a, b) -> Expr.Mul (copy a, copy b)
  | Expr.Band (a, b) -> Expr.Band (copy a, copy b)
  | Expr.Eq (a, b) -> Expr.Eq (copy a, copy b)
  | Expr.Lt (a, b) -> Expr.Lt (copy a, copy b)
  | Expr.Le (a, b) -> Expr.Le (copy a, copy b)
  | Expr.And (a, b) -> Expr.And (copy a, copy b)
  | Expr.Or (a, b) -> Expr.Or (copy a, copy b)
  | Expr.Not a -> Expr.Not (copy a)

let expr_hash_structural =
  QCheck.Test.make ~name:"expr: structurally equal expressions hash alike" ~count:300
    (QCheck.make ~print:(fun (a, b) -> Expr.to_string a ^ " / " ^ Expr.to_string b)
       QCheck.Gen.(pair gen_expr gen_expr))
    (fun (a, b) ->
      let a' = copy a in
      Expr.hash a = Expr.hash a'
      && Expr.hash ~seed:17 a = Expr.hash ~seed:17 a'
      && Expr.hash a >= 0
      (* the converse, up to a 62-bit collision *)
      && (a = b) = (Expr.hash a = Expr.hash b))

(* [Hashtbl.hash] reads a bounded prefix of a value; the structural hash
   reads the whole tree. *)
let expr_hash_reads_deep () =
  let x = Expr.var "th_x" ~lo:0 ~hi:60 in
  let rec chain n leaf = if n = 0 then leaf else Expr.Add (Expr.Var x, chain (n - 1) leaf) in
  let a = chain 200 (Expr.Const 1) and b = chain 200 (Expr.Const 2) in
  Alcotest.(check bool) "bounded sampling cannot tell them apart" true
    (Hashtbl.hash a = Hashtbl.hash b);
  Alcotest.(check bool) "the structural hash can" true (Expr.hash a <> Expr.hash b)

(* The signature [Engine.path_signature] used before it hashed
   structurally: byte-wise FNV-1a over the rendered path. *)
let rendered_signature path =
  let h = ref 0x3f29ce484222325 in
  let feed_char c = h := (!h lxor Char.code c) * 0x100000001b3 in
  List.iter
    (fun (e, taken) ->
      feed_char (if taken then 'T' else 'F');
      String.iter feed_char (Expr.to_string e);
      feed_char ';')
    path;
  !h land max_int

let distinct signature paths =
  let seen = Hashtbl.create 64 in
  List.iter (fun path -> Hashtbl.replace seen (signature path) ()) paths;
  Hashtbl.length seen

(* Sweeps of paths drawn from a small pool of conditions, so that many
   repeat: each sweep counts as many distinct paths under the
   structural signature as under the rendered one, and as there are
   structurally distinct paths. *)
let path_signature_counts =
  let gen =
    let open QCheck.Gen in
    let* pool = list_size (int_range 1 6) gen_expr in
    let pool = Array.of_list pool in
    let branch = pair (map (fun i -> pool.(i)) (int_bound (Array.length pool - 1))) bool in
    list_size (int_range 1 80) (list_size (int_bound 4) branch)
  in
  QCheck.Test.make ~name:"engine: path signature counts paths as the rendered one did"
    ~count:200
    (QCheck.make ~print:(fun paths -> string_of_int (List.length paths) ^ " paths") gen)
    (fun paths ->
      let n = distinct Engine.path_signature paths in
      n = distinct rendered_signature paths && n = List.length (List.sort_uniq compare paths))

(* --- Interval --- *)

let interval_ops () =
  let i = Interval.make 2 5 and j = Interval.make (-1) 3 in
  check Alcotest.int "add lo" 1 (Interval.add i j).Interval.lo;
  check Alcotest.int "add hi" 8 (Interval.add i j).Interval.hi;
  check Alcotest.int "sub lo" (-1) (Interval.sub i j).Interval.lo;
  check Alcotest.int "sub hi" 6 (Interval.sub i j).Interval.hi;
  check Alcotest.int "mul lo" (-5) (Interval.mul i j).Interval.lo;
  check Alcotest.int "mul hi" 15 (Interval.mul i j).Interval.hi;
  (match Interval.inter i j with
  | Some k ->
      check Alcotest.int "inter lo" 2 k.Interval.lo;
      check Alcotest.int "inter hi" 3 k.Interval.hi
  | None -> Alcotest.fail "must intersect");
  check (Alcotest.option Alcotest.reject) "disjoint" None
    (Option.map ignore (Interval.inter (Interval.make 0 1) (Interval.make 5 6)))

let interval_band_sound =
  QCheck.Test.make ~name:"interval: band is a sound envelope" ~count:500
    QCheck.(quad (int_bound 300) (int_bound 300) (int_bound 300) (int_bound 300))
    (fun (a, b, c, d) ->
      let i = Interval.make (min a b) (max a b) in
      let j = Interval.make (min c d) (max c d) in
      let env = Interval.band i j in
      (* sample some concrete pairs *)
      List.for_all
        (fun (x, y) -> Interval.mem (x land y) env)
        [ (i.Interval.lo, j.Interval.lo); (i.Interval.hi, j.Interval.hi);
          (i.Interval.lo, j.Interval.hi); (i.Interval.hi, j.Interval.lo);
          ((i.Interval.lo + i.Interval.hi) / 2, (j.Interval.lo + j.Interval.hi) / 2) ])

(* --- Solver --- *)

let solve_simple () =
  let x = Expr.var "ts_x" ~lo:0 ~hi:255 in
  let y = Expr.var "ts_y" ~lo:0 ~hi:255 in
  match Solver.solve Expr.[ Eq (Add (Var x, Var y), Const 300); Lt (Var x, Const 50) ] with
  | Solver.Sat m ->
      let get v = Option.get (Solver.model_value m v) in
      check Alcotest.int "sum" 300 (get x + get y);
      Alcotest.(check bool) "x < 50" true (get x < 50)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "must be satisfiable"

let solve_unsat () =
  let x = Expr.var "ts_x" ~lo:0 ~hi:255 in
  (match Solver.solve Expr.[ Lt (Var x, Const 5); Lt (Const 10, Var x) ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "contradiction must be Unsat");
  match Solver.solve Expr.[ Eq (Var x, Const 300) ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "out of domain must be Unsat"

let solve_boolean_structure () =
  let x = Expr.var "ts_x" ~lo:0 ~hi:255 in
  let y = Expr.var "ts_y" ~lo:0 ~hi:255 in
  let c =
    Expr.(
      And
        ( Or (Eq (Var x, Const 4), Eq (Var x, Const 9)),
          Not (Eq (Var x, Const 4)) ))
  in
  match Solver.solve [ c; Expr.(Eq (Var y, Var x)) ] with
  | Solver.Sat m ->
      check (Alcotest.option Alcotest.int) "x forced to 9" (Some 9) (Solver.model_value m x);
      check (Alcotest.option Alcotest.int) "y follows" (Some 9) (Solver.model_value m y)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "must solve"

let solve_band () =
  let x = Expr.var "ts_x" ~lo:0 ~hi:255 in
  match Solver.solve Expr.[ Eq (Band (Var x, Const 0xF0), Const 0x50); Lt (Const 0x57, Var x) ] with
  | Solver.Sat m ->
      let v = Option.get (Solver.model_value m x) in
      Alcotest.(check bool) "mask holds" true (v land 0xF0 = 0x50 && v > 0x57)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "must solve masked constraint"

let arb_constraint_set =
  (* Random small constraint systems over 3 variables. *)
  let open QCheck.Gen in
  let x = Expr.var "tp_x" ~lo:0 ~hi:60 in
  let y = Expr.var "tp_y" ~lo:0 ~hi:60 in
  let z = Expr.var "tp_z" ~lo:0 ~hi:60 in
  let term = oneof [ return (Expr.Var x); return (Expr.Var y); return (Expr.Var z);
                     map (fun n -> Expr.Const n) (int_bound 80) ] in
  let expr =
    let* a = term in
    let* b = term in
    oneofl
      [ Expr.Add (a, b); Expr.Sub (a, b); a ]
  in
  let cmp =
    let* a = expr in
    let* b = expr in
    oneofl [ Expr.Eq (a, b); Expr.Lt (a, b); Expr.Le (a, b); Expr.Not (Expr.Eq (a, b)) ]
  in
  QCheck.make
    ~print:(fun cs -> String.concat " & " (List.map Expr.to_string cs))
    (list_size (int_range 1 4) cmp)

let solver_sat_sound =
  QCheck.Test.make ~name:"solver: SAT models verify; UNSAT has no model in brute force"
    ~count:200 arb_constraint_set
    (fun cs ->
      match Solver.solve cs with
      | Solver.Sat m -> Solver.check m cs
      | Solver.Unknown -> true
      | Solver.Unsat ->
          (* brute-force over the 61^3 cube, sampled on a grid for cost *)
          let x = Expr.var "tp_x" ~lo:0 ~hi:60 in
          let y = Expr.var "tp_y" ~lo:0 ~hi:60 in
          let z = Expr.var "tp_z" ~lo:0 ~hi:60 in
          let found = ref false in
          for i = 0 to 60 do
            for j = 0 to 60 do
              for k = 0 to 60 do
                if not !found then begin
                  let env v =
                    if v = x then i else if v = y then j else if v = z then k else 0
                  in
                  if List.for_all (Expr.is_true env) cs then found := true
                end
              done
            done
          done;
          not !found)

(* An answer served from the cache, also to a permutation of the set it
   was solved for, still satisfies the set. *)
let solver_cached_sat_sound =
  QCheck.Test.make ~name:"solver: a cached SAT model satisfies its constraint set"
    ~count:200 arb_constraint_set
    (fun cs ->
      ignore (Solver.solve cs);
      let hits = (Solver.stats ()).Solver.cache_hits in
      let served = [ Solver.solve cs; Solver.solve (List.rev cs) ] in
      (Solver.stats ()).Solver.cache_hits = hits + 2
      && List.for_all2
           (fun outcome cs ->
             match outcome with Solver.Sat m -> Solver.check m cs | Solver.Unsat | Solver.Unknown -> true)
           served [ cs; List.rev cs ])

(* --- Cval / Ctx --- *)

let cval_concrete_folding () =
  let a = Cval.concrete 4 and b = Cval.concrete 5 in
  let s = Cval.add a b in
  check Alcotest.int "conc" 9 (Cval.to_int s);
  Alcotest.(check bool) "stays concrete" false (Cval.is_symbolic s)

let ctx_records_symbolic_branches_only () =
  let ctx = Ctx.create [ ("tc_f", 9) ] in
  let f = Ctx.field ctx "tc_f" ~lo:0 ~hi:20 ~default:0 in
  check Alcotest.int "input respected" 9 (Cval.to_int f);
  ignore (Ctx.branch ctx (Cval.concrete 1));
  ignore (Ctx.branch ctx (Cval.lt f (Cval.concrete 10)));
  check Alcotest.int "two branches executed" 2 (Ctx.branches ctx);
  check Alcotest.int "one symbolic constraint" 1 (List.length (Ctx.path ctx))

let ctx_field_clipping () =
  let ctx = Ctx.create [ ("tc_g", 999) ] in
  let f = Ctx.field ctx "tc_g" ~lo:0 ~hi:20 ~default:0 in
  check Alcotest.int "clipped to domain" 20 (Cval.to_int f);
  let again = Ctx.field ctx "tc_g" ~lo:0 ~hi:20 ~default:0 in
  check Alcotest.int "same value on re-read" 20 (Cval.to_int again)

(* --- Engine --- *)

let nested_program ctx =
  let x = Ctx.field ctx "tn_x" ~lo:0 ~hi:255 ~default:0 in
  let y = Ctx.field ctx "tn_y" ~lo:0 ~hi:255 ~default:0 in
  if Ctx.branch ctx (Cval.eq_const x 42) then
    if Ctx.branch ctx (Cval.lt y (Cval.concrete 10)) then "a"
    else if Ctx.branch ctx (Cval.eq (Cval.add x y) (Cval.concrete 100)) then
      failwith "seeded bug"
    else "b"
  else if Ctx.branch ctx (Cval.gt y (Cval.concrete 200)) then "c"
  else "d"

let engine_coverage () =
  let r = Engine.explore ~seeds:[ [] ] nested_program in
  check Alcotest.int "5 distinct paths" 5 r.Engine.distinct_paths;
  check Alcotest.int "1 crash" 1 (List.length r.Engine.crashes);
  Alcotest.(check bool) "crash input satisfies x+y=100" true
    (match r.Engine.crashes with
    | [ c ] ->
        List.assoc "tn_x" c.Engine.run_input = 42
        && List.assoc "tn_x" c.Engine.run_input + List.assoc "tn_y" c.Engine.run_input = 100
    | _ -> false)

let engine_respects_limits () =
  let limits = { Engine.default_limits with Engine.max_inputs = 2 } in
  let r = Engine.explore ~limits ~seeds:[ [] ] nested_program in
  check Alcotest.int "stopped at 2" 2 r.Engine.inputs_executed

let engine_dedupes_inputs () =
  (* Duplicate seeds collapse; the child input derived twice (x=3, from
     both remaining seeds) runs once.  The engine compares inputs
     syntactically, so [] and [x=0] are distinct seeds. *)
  let program ctx =
    let x = Ctx.field ctx "td_x" ~lo:0 ~hi:10 ~default:0 in
    Ctx.branch ctx (Cval.eq_const x 3)
  in
  let r = Engine.explore ~seeds:[ []; []; [ ("td_x", 0) ] ] program in
  check Alcotest.int "three executions" 3 r.Engine.inputs_executed;
  check Alcotest.int "two distinct paths" 2 r.Engine.distinct_paths

(* --- Grammar --- *)

let grammar_deterministic () =
  let g = Grammar.list_of ~min:2 ~max:5 (Grammar.range 0 9) in
  let a = Grammar.run g (Netsim.Rng.create 5) in
  let b = Grammar.run g (Netsim.Rng.create 5) in
  check (Alcotest.list Alcotest.int) "same seed same derivation" a b

let grammar_weighted_skew () =
  let g = Grammar.weighted [ (9, Grammar.pure "common"); (1, Grammar.pure "rare") ] in
  let rng = Netsim.Rng.create 11 in
  let n = 1000 in
  let common = ref 0 in
  for _ = 1 to n do
    if Grammar.run g rng = "common" then incr common
  done;
  Alcotest.(check bool) "skew respected" true (!common > 800 && !common < 990)

let suite =
  [ ("expr: evaluation", `Quick, expr_eval);
    ("expr: negate flips truth", `Quick, expr_negate);
    ("expr: vars dedup", `Quick, expr_vars_dedup);
    ("expr: interning", `Quick, var_interning);
    qtest expr_hash_structural;
    ("expr: hash reads the whole tree", `Quick, expr_hash_reads_deep);
    qtest path_signature_counts;
    ("interval: arithmetic", `Quick, interval_ops);
    qtest interval_band_sound;
    ("solver: linear system", `Quick, solve_simple);
    ("solver: unsat detection", `Quick, solve_unsat);
    ("solver: boolean structure", `Quick, solve_boolean_structure);
    ("solver: bitmask constraints", `Quick, solve_band);
    qtest solver_sat_sound;
    qtest solver_cached_sat_sound;
    ("cval: concrete folding", `Quick, cval_concrete_folding);
    ("ctx: symbolic branches recorded", `Quick, ctx_records_symbolic_branches_only);
    ("ctx: field clipping and stability", `Quick, ctx_field_clipping);
    ("engine: full path coverage", `Quick, engine_coverage);
    ("engine: input limit", `Quick, engine_respects_limits);
    ("engine: input dedup", `Quick, engine_dedupes_inputs);
    ("grammar: determinism", `Quick, grammar_deterministic);
    ("grammar: weighted choice", `Quick, grammar_weighted_skew) ]
