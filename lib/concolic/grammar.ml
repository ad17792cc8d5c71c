type 'a t = Netsim.Rng.t -> 'a

let run t rng = t rng

let pure x _ = x
let map f t rng = f (t rng)
let map2 f a b rng =
  let x = a rng in
  let y = b rng in
  f x y

let bind t f rng = f (t rng) rng
let both a b = map2 (fun x y -> (x, y)) a b

let range lo hi rng = Netsim.Rng.int_in rng lo hi

let choose = function
  | [] -> invalid_arg "Grammar.choose: empty"
  | ps -> fun rng -> (List.nth ps (Netsim.Rng.int rng (List.length ps))) rng

let weighted = function
  | [] -> invalid_arg "Grammar.weighted: empty"
  | ps ->
      let total = List.fold_left (fun acc (w, _) -> acc + w) 0 ps in
      if total <= 0 then invalid_arg "Grammar.weighted: weights must be positive";
      fun rng ->
        let roll = Netsim.Rng.int rng total in
        let rec pick acc = function
          | [] -> assert false
          | (w, p) :: rest -> if roll < acc + w then p rng else pick (acc + w) rest
        in
        pick 0 ps

let opt p t rng = if Netsim.Rng.chance rng p then Some (t rng) else None

let list_of ~min ~max t rng =
  let n = Netsim.Rng.int_in rng min max in
  List.init n (fun _ -> t rng)

let shuffle_of l rng =
  let a = Array.of_list l in
  Netsim.Rng.shuffle rng a;
  Array.to_list a

let one_of l rng = Netsim.Rng.pick rng l

let chance p rng = Netsim.Rng.chance rng p
