type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: empty";
  { lo; hi }

let point n = { lo = n; hi = n }
let of_var (v : Expr.var) = { lo = v.Expr.v_lo; hi = v.Expr.v_hi }
let is_point t = t.lo = t.hi
let width t = t.hi - t.lo + 1
let mem n t = n >= t.lo && n <= t.hi

let inter a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }
let sub a b = { lo = a.lo - b.hi; hi = a.hi - b.lo }

let mul a b =
  let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  { lo = List.fold_left min max_int products;
    hi = List.fold_left max min_int products }

let band a b =
  if is_point b && b.lo >= 0 && a.lo >= 0 then
    (* x land mask is within [0, mask] (and within [0, a.hi]). *)
    { lo = 0; hi = min a.hi b.lo }
  else if is_point a && a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = min b.hi a.lo }
  else if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = min a.hi b.hi }
  else { lo = min a.lo b.lo; hi = max a.hi b.hi }
