type model = (Expr.var * int) list

type outcome = Sat of model | Unsat | Unknown

(* Accounting lives in the global telemetry registry (registry
   counters are atomics, so concurrent solves on several domains
   don't race).  [stats] reads them back for the bench harness. *)
type stats = {
  solved_sat : int;
  solved_unsat : int;
  solved_unknown : int;
  search_nodes : int;
  cache_hits : int;
  cache_misses : int;
}

let m_sat = lazy (Telemetry.Metrics.counter "solver.sat")
let m_unsat = lazy (Telemetry.Metrics.counter "solver.unsat")
let m_unknown = lazy (Telemetry.Metrics.counter "solver.unknown")
let m_nodes = lazy (Telemetry.Metrics.counter "solver.search_nodes")
let m_hits = lazy (Telemetry.Metrics.counter "solver.cache_hits")
let m_misses = lazy (Telemetry.Metrics.counter "solver.cache_misses")

let all_counters () =
  List.map Lazy.force [ m_sat; m_unsat; m_unknown; m_nodes; m_hits; m_misses ]

let stats () =
  match List.map Telemetry.Metrics.value (all_counters ()) with
  | [ sat; unsat; unknown; nodes; hits; misses ] ->
      { solved_sat = sat; solved_unsat = unsat; solved_unknown = unknown;
        search_nodes = nodes; cache_hits = hits; cache_misses = misses }
  | _ -> assert false

let reset_stats () = List.iter Telemetry.Metrics.reset (all_counters ())

(* Wide sentinels that survive interval arithmetic without overflow. *)
let neg_big = -(1 lsl 40)
let pos_big = 1 lsl 40

module Vmap = Map.Make (Int)

type domains = Interval.t Vmap.t

exception Contradiction

let dom ds (v : Expr.var) =
  Option.value (Vmap.find_opt v.Expr.v_id ds) ~default:(Interval.of_var v)

(* Forward interval evaluation. *)
let rec ieval ds (e : Expr.t) : Interval.t =
  match e with
  | Expr.Const n -> Interval.point n
  | Expr.Var v -> dom ds v
  | Expr.Add (a, b) -> Interval.add (ieval ds a) (ieval ds b)
  | Expr.Sub (a, b) -> Interval.sub (ieval ds a) (ieval ds b)
  | Expr.Mul (a, b) -> Interval.mul (ieval ds a) (ieval ds b)
  | Expr.Band (a, b) -> Interval.band (ieval ds a) (ieval ds b)
  | Expr.Eq (a, b) -> (
      let ia = ieval ds a and ib = ieval ds b in
      match Interval.inter ia ib with
      | None -> Interval.point 0
      | Some _ ->
          if Interval.is_point ia && Interval.is_point ib then Interval.point 1
          else Interval.make 0 1)
  | Expr.Lt (a, b) ->
      let ia = ieval ds a and ib = ieval ds b in
      if ia.Interval.hi < ib.Interval.lo then Interval.point 1
      else if ia.Interval.lo >= ib.Interval.hi then Interval.point 0
      else Interval.make 0 1
  | Expr.Le (a, b) ->
      let ia = ieval ds a and ib = ieval ds b in
      if ia.Interval.hi <= ib.Interval.lo then Interval.point 1
      else if ia.Interval.lo > ib.Interval.hi then Interval.point 0
      else Interval.make 0 1
  | Expr.And (a, b) ->
      let ia = ieval ds a and ib = ieval ds b in
      if ia.Interval.lo > 0 || ia.Interval.hi < 0 then
        (* a definitely true *)
        if ib.Interval.lo > 0 || ib.Interval.hi < 0 then Interval.point 1
        else if Interval.is_point ib && ib.Interval.lo = 0 then Interval.point 0
        else Interval.make 0 1
      else if Interval.is_point ia && ia.Interval.lo = 0 then Interval.point 0
      else Interval.make 0 1
  | Expr.Or (a, b) ->
      let ia = ieval ds a and ib = ieval ds b in
      let def_true (i : Interval.t) = i.Interval.lo > 0 || i.Interval.hi < 0 in
      let def_false (i : Interval.t) = Interval.is_point i && i.Interval.lo = 0 in
      if def_true ia || def_true ib then Interval.point 1
      else if def_false ia && def_false ib then Interval.point 0
      else Interval.make 0 1
  | Expr.Not a ->
      let ia = ieval ds a in
      if Interval.is_point ia && ia.Interval.lo = 0 then Interval.point 1
      else if ia.Interval.lo > 0 || ia.Interval.hi < 0 then Interval.point 0
      else Interval.make 0 1

let def_true (i : Interval.t) = i.Interval.lo > 0 || i.Interval.hi < 0
let def_false (i : Interval.t) = Interval.is_point i && i.Interval.lo = 0

(* Backward contractor: refine [ds] so that [e]'s value can lie in [i].
   Raises [Contradiction] when impossible.  Conservative: operators we
   cannot invert precisely keep the current domains. *)
let rec narrow ds (e : Expr.t) (i : Interval.t) : domains =
  match e with
  | Expr.Const n -> if Interval.mem n i then ds else raise Contradiction
  | Expr.Var v -> (
      match Interval.inter (dom ds v) i with
      | Some d -> Vmap.add v.Expr.v_id d ds
      | None -> raise Contradiction)
  | Expr.Add (a, b) ->
      let ia = ieval ds a and ib = ieval ds b in
      let ds = narrow ds a (Interval.sub i ib) in
      narrow ds b (Interval.sub i ia)
  | Expr.Sub (a, b) ->
      (* a - b in i  =>  a in i + ib,  b in ia - i *)
      let ia = ieval ds a and ib = ieval ds b in
      let ds = narrow ds a (Interval.add i ib) in
      narrow ds b (Interval.sub ia i)
  | Expr.Mul (a, b) ->
      (* Invert only through a positive constant factor. *)
      let invert_const c other =
        if c > 0 then
          let lo = Interval.(i.lo) and hi = Interval.(i.hi) in
          let div_lo = if lo >= 0 then (lo + c - 1) / c else lo / c in
          let div_hi = if hi >= 0 then hi / c else (hi - c + 1) / c in
          if div_lo > div_hi then raise Contradiction
          else narrow ds other (Interval.make div_lo div_hi)
        else ds
      in
      (match (a, b) with
      | Expr.Const c, other -> invert_const c other
      | other, Expr.Const c -> invert_const c other
      | _ ->
          if Interval.inter (ieval ds e) i = None then raise Contradiction else ds)
  | Expr.Band _ ->
      if Interval.inter (ieval ds e) i = None then raise Contradiction else ds
  | Expr.Eq (a, b) ->
      if not (Interval.mem 0 i) then begin
        (* must be true: both sides share the intersection *)
        let ia = ieval ds a and ib = ieval ds b in
        match Interval.inter ia ib with
        | None -> raise Contradiction
        | Some common ->
            let ds = narrow ds a common in
            narrow ds b common
      end
      else if def_false i then begin
        (* must be false: prune only when one side is a point *)
        let ia = ieval ds a and ib = ieval ds b in
        if Interval.is_point ia && Interval.is_point ib && ia = ib then
          raise Contradiction
        else ds
      end
      else ds
  | Expr.Lt (a, b) ->
      if not (Interval.mem 0 i) then begin
        (* a < b *)
        let ia = ieval ds a and ib = ieval ds b in
        let ds = narrow ds a (Interval.make neg_big (ib.Interval.hi - 1)) in
        narrow ds b (Interval.make (ia.Interval.lo + 1) pos_big)
      end
      else if def_false i then begin
        (* b <= a *)
        let ia = ieval ds a and ib = ieval ds b in
        let ds = narrow ds b (Interval.make neg_big ia.Interval.hi) in
        narrow ds a (Interval.make ib.Interval.lo pos_big)
      end
      else ds
  | Expr.Le (a, b) ->
      if not (Interval.mem 0 i) then begin
        let ia = ieval ds a and ib = ieval ds b in
        let ds = narrow ds a (Interval.make neg_big ib.Interval.hi) in
        narrow ds b (Interval.make ia.Interval.lo pos_big)
      end
      else if def_false i then begin
        (* b < a *)
        let ia = ieval ds a and ib = ieval ds b in
        let ds = narrow ds b (Interval.make neg_big (ia.Interval.hi - 1)) in
        narrow ds a (Interval.make (ib.Interval.lo + 1) pos_big)
      end
      else ds
  | Expr.And (a, b) ->
      if not (Interval.mem 0 i) then
        let ds = narrow ds a (Interval.make 1 pos_big) in
        narrow ds b (Interval.make 1 pos_big)
      else if def_false i then begin
        let ia = ieval ds a and ib = ieval ds b in
        if def_true ia then narrow ds b (Interval.point 0)
        else if def_true ib then narrow ds a (Interval.point 0)
        else ds
      end
      else ds
  | Expr.Or (a, b) ->
      if not (Interval.mem 0 i) then begin
        let ia = ieval ds a and ib = ieval ds b in
        if def_false ia then narrow ds b (Interval.make 1 pos_big)
        else if def_false ib then narrow ds a (Interval.make 1 pos_big)
        else ds
      end
      else if def_false i then
        let ds = narrow ds a (Interval.point 0) in
        narrow ds b (Interval.point 0)
      else ds
  | Expr.Not a ->
      if not (Interval.mem 0 i) then narrow ds a (Interval.point 0)
      else if def_false i then narrow ds a (Interval.make 1 pos_big)
      else ds

let assert_true ds e = narrow ds e (Interval.make 1 pos_big)

(* Comparisons treat any nonzero as true, but branch conditions are
   boolean-shaped; asserting value >= 1 is correct for all our
   constructors (booleans are 0/1, and branch() normalizes). *)

let propagate constraints ds =
  let rec fix ds n =
    if n = 0 then ds
    else
      let ds' = List.fold_left assert_true ds constraints in
      if Vmap.equal (fun a b -> a = b) ds ds' then ds else fix ds' (n - 1)
  in
  fix ds 8

let all_vars constraints =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun (v : Expr.var) ->
          if not (Hashtbl.mem tbl v.Expr.v_id) then begin
            Hashtbl.add tbl v.Expr.v_id v;
            order := v :: !order
          end)
        (Expr.vars c))
    constraints;
  List.rev !order

let model_value m v =
  List.find_map
    (fun ((v' : Expr.var), x) -> if v'.Expr.v_id = v.Expr.v_id then Some x else None)
    m

let env_of_model m (v : Expr.var) =
  match model_value m v with Some x -> x | None -> v.Expr.v_lo

let check m constraints = List.for_all (Expr.is_true (env_of_model m)) constraints

(* Interesting values for a variable: constants appearing in the
   constraints, shifted by +-1, clipped to the domain. *)
let interesting_values constraints (v : Expr.var) (d : Interval.t) =
  let consts = ref [] in
  let rec collect (e : Expr.t) =
    match e with
    | Expr.Const n -> consts := n :: !consts
    | Expr.Var _ -> ()
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Band (a, b)
    | Expr.Eq (a, b) | Expr.Lt (a, b) | Expr.Le (a, b) | Expr.And (a, b)
    | Expr.Or (a, b) ->
        collect a;
        collect b
    | Expr.Not a -> collect a
  in
  List.iter
    (fun c -> if List.exists (fun (u : Expr.var) -> u.Expr.v_id = v.Expr.v_id) (Expr.vars c) then collect c)
    constraints;
  let candidates =
    d.Interval.lo :: d.Interval.hi
    :: ((d.Interval.lo + d.Interval.hi) / 2)
    :: List.concat_map (fun n -> [ n; n - 1; n + 1 ]) !consts
  in
  List.sort_uniq Int.compare (List.filter (fun n -> Interval.mem n d) candidates)

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)
(*                                                                     *)
(* Generational search re-solves many shared constraint sets: distinct *)
(* runs that reach the same path flip the same branches, and repeated  *)
(* explorations of the same handler (one per orchestrator round)       *)
(* regenerate identical path conditions wholesale.  The solver is      *)
(* deterministic, so a canonical fingerprint of the constraint set     *)
(* (plus the node budget, which changes Unknown answers) is a sound    *)
(* memo key.                                                           *)
(* ------------------------------------------------------------------ *)

(* Two independently seeded structural hashes ({!Expr.hash}) of each
   conjunct, keyed on [v_id]: interning makes ids unique per (name, lo,
   hi), so they capture variable identity including domains.  The
   conjunction's order is irrelevant to the outcome, so the pairs are
   sorted before they are folded, with the node budget, into a key of
   about 124 bits: a collision would serve a wrong outcome.  The key
   holds no expression. *)
type key = { k_a : int; k_b : int }

let seed_a = 0x3f29ce484222325
let seed_b = 0x1b873593cc9e2d51

let fingerprint ~max_nodes constraints =
  let by_hashes (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
  in
  List.fold_left
    (fun k (a, b) -> { k_a = Expr.mix k.k_a a; k_b = Expr.mix k.k_b b })
    { k_a = Expr.mix seed_a max_nodes; k_b = Expr.mix seed_b max_nodes }
    (List.sort by_hashes
       (List.map (fun c -> (Expr.hash ~seed:seed_a c, Expr.hash ~seed:seed_b c)) constraints))

let cache : (key, outcome) Hashtbl.t = Hashtbl.create 1024
let cache_lock = Mutex.create ()
let cache_enabled = Atomic.make true
let cache_capacity = 1 lsl 16

let set_cache_enabled b = Atomic.set cache_enabled b

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock

let cache_find key =
  Mutex.lock cache_lock;
  let r = Hashtbl.find_opt cache key in
  Mutex.unlock cache_lock;
  r

let cache_store key outcome =
  Mutex.lock cache_lock;
  (* Generational eviction: a full cache is wiped rather than LRU-ed;
     the hot prefixes repopulate it within one exploration round. *)
  if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
  Hashtbl.replace cache key outcome;
  Mutex.unlock cache_lock

let solve_uncached ~max_nodes constraints =
  let vars = all_vars constraints in
  let nodes = ref 0 in
  let exception Found of model in
  let record outcome =
    Telemetry.Metrics.incr
      (Lazy.force
         (match outcome with
         | Sat _ -> m_sat
         | Unsat -> m_unsat
         | Unknown -> m_unknown));
    (* One atomic add per solve, not per search node. *)
    Telemetry.Metrics.add (Lazy.force m_nodes) !nodes;
    outcome
  in
  let budget_hit = ref false in
  let sampled = ref false in
  (* Depth-first: propagate, check, pick the tightest unfixed variable,
     try its interesting values. *)
  let rec search ds =
    incr nodes;
    if !nodes > max_nodes then budget_hit := true
    else
      match propagate constraints ds with
      | exception Contradiction -> ()
      | ds ->
          let candidate_model =
            List.map (fun v -> (v, (dom ds v).Interval.lo)) vars
          in
          if check candidate_model constraints then raise (Found candidate_model);
          (* choose branching variable: smallest non-point domain *)
          let unfixed =
            List.filter_map
              (fun v ->
                let d = dom ds v in
                if Interval.is_point d then None else Some (v, d))
              vars
          in
          let by_width (_, (a : Interval.t)) (_, (b : Interval.t)) =
            Int.compare (Interval.width a) (Interval.width b)
          in
          match List.sort by_width unfixed with
          | [] -> () (* all fixed but check failed: dead branch *)
          | (v, d) :: _ ->
              let values =
                if Interval.width d <= 64 then
                  List.init (Interval.width d) (fun i -> d.Interval.lo + i)
                else begin
                  (* Non-exhaustive: failure below no longer proves Unsat. *)
                  sampled := true;
                  interesting_values constraints v d
                end
              in
              List.iter
                (fun value ->
                  if not !budget_hit then
                    match Interval.inter d (Interval.point value) with
                    | Some _ ->
                        search (Vmap.add v.Expr.v_id (Interval.point value) ds)
                    | None -> ())
                values
  in
  match search Vmap.empty with
  | () -> if !budget_hit || !sampled then record Unknown else record Unsat
  | exception Found m -> record (Sat m)
  | exception Contradiction -> record Unsat

let outcome_name = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

let solve ?(max_nodes = 20_000) constraints =
  Telemetry.with_span "solve"
    ~attrs:[ ("constraints", Telemetry.Json.Int (List.length constraints)) ]
    (fun sp ->
      let note ~cached outcome =
        Telemetry.add_attr sp
          [ ("outcome", Telemetry.Json.String (outcome_name outcome));
            ("cached", Telemetry.Json.Bool cached) ];
        outcome
      in
      if not (Atomic.get cache_enabled) then
        note ~cached:false (solve_uncached ~max_nodes constraints)
      else
        let key = fingerprint ~max_nodes constraints in
        match cache_find key with
        | Some outcome ->
            Telemetry.Metrics.incr (Lazy.force m_hits);
            note ~cached:true outcome
        | None ->
            Telemetry.Metrics.incr (Lazy.force m_misses);
            let outcome = solve_uncached ~max_nodes constraints in
            cache_store key outcome;
            note ~cached:false outcome)

(* The repair query: find values under which [detection] can no longer
   fire while the side conditions still hold.  Just a named spelling of
   [solve (negate detection :: constraints)], so it shares the memo
   cache with every other query. *)
let solve_negated ~detection constraints = solve (Expr.negate detection :: constraints)
