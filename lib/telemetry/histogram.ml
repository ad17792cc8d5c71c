type t = {
  h_name : string;
  le : float array;  (* inclusive upper bounds, strictly increasing *)
  counts : int array;  (* length le + 1; last slot is overflow *)
  mutable n : int;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
  mutable rev_samples : float list;  (* newest first *)
  lock : Mutex.t;
}

let default_buckets =
  [| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1e6; 1e7; 1e8; 1e9 |]

let create ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then invalid_arg "Histogram.create: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && not (buckets.(i - 1) < b) then
        invalid_arg "Histogram.create: buckets must be strictly increasing")
    buckets;
  { h_name = name;
    le = Array.copy buckets;
    counts = Array.make (Array.length buckets + 1) 0;
    n = 0;
    total = 0.;
    lo = infinity;
    hi = neg_infinity;
    rev_samples = [];
    lock = Mutex.create () }

let bucket_index le v =
  (* First bucket whose upper bound admits [v]; length le = overflow. *)
  let n = Array.length le in
  let rec go i = if i >= n then n else if v <= le.(i) then i else go (i + 1) in
  go 0

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let observe t v =
  locked t (fun () ->
      t.counts.(bucket_index t.le v) <- t.counts.(bucket_index t.le v) + 1;
      t.n <- t.n + 1;
      t.total <- t.total +. v;
      if v < t.lo then t.lo <- v;
      if v > t.hi then t.hi <- v;
      t.rev_samples <- v :: t.rev_samples)

let restorer t =
  locked t (fun () ->
      let counts = Array.copy t.counts
      and n = t.n
      and total = t.total
      and lo = t.lo
      and hi = t.hi
      and samples = t.rev_samples in
      fun () ->
        locked t (fun () ->
            Array.blit counts 0 t.counts 0 (Array.length counts);
            t.n <- n;
            t.total <- total;
            t.lo <- lo;
            t.hi <- hi;
            t.rev_samples <- samples))

let count t = locked t (fun () -> t.n)
let sum t = locked t (fun () -> t.total)

let mean t =
  locked t (fun () -> if t.n = 0 then nan else t.total /. float_of_int t.n)

let min_value t = locked t (fun () -> if t.n = 0 then nan else t.lo)
let max_value t = locked t (fun () -> if t.n = 0 then nan else t.hi)

(* Nearest-rank on a sorted array.  The historical formula
   [ceil (p * n)] yields rank 0 at [p = 0.] — an out-of-range index
   that the old code papered over with clamping; [max 1] makes the
   edge explicit: p = 0 is the minimum, p = 1 the maximum. *)
let percentile_of_sorted a p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg "Histogram.percentile: p must be within [0, 1]";
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
    a.(rank - 1)

let percentile t p =
  (* Validate [p] even when empty so bad callers fail deterministically. *)
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg "Histogram.percentile: p must be within [0, 1]";
  let samples = locked t (fun () -> t.rev_samples) in
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  percentile_of_sorted a p

let buckets t =
  locked t (fun () ->
      let bounded =
        Array.to_list (Array.mapi (fun i le -> (le, t.counts.(i))) t.le)
      in
      bounded @ [ (infinity, t.counts.(Array.length t.le)) ])

let pp ppf t =
  let n = count t in
  if n = 0 then Format.fprintf ppf "%s: empty" t.h_name
  else
    Format.fprintf ppf "%s: n=%d mean=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f"
      t.h_name n (mean t) (min_value t) (percentile t 0.5) (percentile t 0.99)
      (max_value t)
