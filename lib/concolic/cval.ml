type t = { conc : int; sym : Expr.t }

let concrete n = { conc = n; sym = Expr.Const n }
let of_var v n = { conc = n; sym = Expr.Var v }

let is_symbolic t = match t.sym with Expr.Const _ -> false | _ -> true
let to_int t = t.conc
let truthy t = t.conc <> 0

let b2i b = if b then 1 else 0

(* Keep the symbolic side small: fold when both sides are concrete. *)
let lift2 conc_op sym_op a b =
  let conc = conc_op a.conc b.conc in
  let sym =
    match (a.sym, b.sym) with
    | Expr.Const _, Expr.Const _ -> Expr.Const conc
    | sa, sb -> sym_op sa sb
  in
  { conc; sym }

let add = lift2 ( + ) (fun a b -> Expr.Add (a, b))
let band = lift2 ( land ) (fun a b -> Expr.Band (a, b))
let eq = lift2 (fun x y -> b2i (x = y)) (fun a b -> Expr.Eq (a, b))
let ne = lift2 (fun x y -> b2i (x <> y)) (fun a b -> Expr.Not (Expr.Eq (a, b)))
let lt = lift2 (fun x y -> b2i (x < y)) (fun a b -> Expr.Lt (a, b))
let le = lift2 (fun x y -> b2i (x <= y)) (fun a b -> Expr.Le (a, b))
let gt = lift2 (fun x y -> b2i (x > y)) (fun a b -> Expr.Lt (b, a))
let ge = lift2 (fun x y -> b2i (x >= y)) (fun a b -> Expr.Le (b, a))
let conj = lift2 (fun x y -> b2i (x <> 0 && y <> 0)) (fun a b -> Expr.And (a, b))
let disj = lift2 (fun x y -> b2i (x <> 0 || y <> 0)) (fun a b -> Expr.Or (a, b))

let eq_const a n = eq a (concrete n)
let in_range a ~lo ~hi = conj (ge a (concrete lo)) (le a (concrete hi))
