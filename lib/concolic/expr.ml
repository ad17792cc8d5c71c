type var = { v_id : int; v_name : string; v_lo : int; v_hi : int }

let intern_table : (string * int * int, var) Hashtbl.t = Hashtbl.create 64
let intern_lock = Mutex.create ()
let next_id = ref 0

(* The intern table is global, and a campaign job runs its handlers on
   the watchdog's worker domain; a job abandoned at its deadline keeps
   running there beside the next one, so interning must be
   serialized. *)
let var name ~lo ~hi =
  if lo > hi then invalid_arg "Expr.var: empty domain";
  let key = (name, lo, hi) in
  Mutex.lock intern_lock;
  let v =
    match Hashtbl.find_opt intern_table key with
    | Some v -> v
    | None ->
        let v = { v_id = !next_id; v_name = name; v_lo = lo; v_hi = hi } in
        incr next_id;
        Hashtbl.add intern_table key v;
        v
  in
  Mutex.unlock intern_lock;
  v

type t =
  | Const of int
  | Var of var
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Band of t * t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | And of t * t
  | Or of t * t
  | Not of t

let tru = Const 1
let fls = Const 0

let b2i b = if b then 1 else 0

let rec eval env = function
  | Const n -> n
  | Var v -> env v
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (a, b) -> eval env a * eval env b
  | Band (a, b) -> eval env a land eval env b
  | Eq (a, b) -> b2i (eval env a = eval env b)
  | Lt (a, b) -> b2i (eval env a < eval env b)
  | Le (a, b) -> b2i (eval env a <= eval env b)
  | And (a, b) -> b2i (eval env a <> 0 && eval env b <> 0)
  | Or (a, b) -> b2i (eval env a <> 0 || eval env b <> 0)
  | Not a -> b2i (eval env a = 0)

let is_true env e = eval env e <> 0

let vars e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v.v_id) then begin
          Hashtbl.add seen v.v_id ();
          acc := v :: !acc
        end
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Band (a, b)
    | Eq (a, b) | Lt (a, b) | Le (a, b) | And (a, b) | Or (a, b) ->
        go a;
        go b
    | Not a -> go a
  in
  go e;
  List.rev !acc

let negate = function
  | Not e -> e
  | Lt (a, b) -> Le (b, a)
  | Le (a, b) -> Lt (b, a)
  | Const n -> Const (b2i (n = 0))
  | e -> Not e

(* One step of a multiplicative fold: xor in a word, multiply by an odd
   constant, then fold the high bits back down so that every input bit
   reaches the low ones. *)
let mix h x =
  let h = (h lxor x) * 0x2127599bf4325c37 in
  h lxor (h lsr 29)

(* Pre-order over tags, [v_id]s and constants: each tag fixes its
   arity, so distinct trees feed distinct word sequences. *)
let rec hash_from h = function
  | Const n -> mix (mix h 1) n
  | Var v -> mix (mix h 2) v.v_id
  | Add (a, b) -> hash2 h 3 a b
  | Sub (a, b) -> hash2 h 4 a b
  | Mul (a, b) -> hash2 h 5 a b
  | Band (a, b) -> hash2 h 6 a b
  | Eq (a, b) -> hash2 h 7 a b
  | Lt (a, b) -> hash2 h 8 a b
  | Le (a, b) -> hash2 h 9 a b
  | And (a, b) -> hash2 h 10 a b
  | Or (a, b) -> hash2 h 11 a b
  | Not a -> hash_from (mix h 12) a

and hash2 h tag a b = hash_from (hash_from (mix h tag) a) b

let hash ?(seed = 0x3f29ce484222325) e = hash_from seed e land max_int

let rec pp ppf = function
  | Const n -> Format.pp_print_int ppf n
  | Var v -> Format.pp_print_string ppf v.v_name
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Band (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Eq (a, b) -> Format.fprintf ppf "(%a = %a)" pp a pp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp a pp b
  | Le (a, b) -> Format.fprintf ppf "(%a <= %a)" pp a pp b
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp a pp b
  | Not a -> Format.fprintf ppf "!%a" pp a

let to_string e = Format.asprintf "%a" pp e
