type t = int
type span = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Time.of_us: negative" else n

let to_us t = t
let of_ms n = of_us (n * 1_000)
let of_sec s = of_us (int_of_float (s *. 1e6))
let to_sec t = float_of_int t /. 1e6
let span_ms n = n * 1_000
let span_sec s = int_of_float (s *. 1e6)
let add t d = max 0 (t + d)
let diff a b = a - b
let compare = Int.compare
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

let pp ppf t =
  if t mod 1_000_000 = 0 then Format.fprintf ppf "%ds" (t / 1_000_000)
  else if t mod 1_000 = 0 then Format.fprintf ppf "%dms" (t / 1_000)
  else Format.fprintf ppf "%dus" t
