(* Uncompressed persistent binary trie; depth is bounded by 32 so the
   lack of path compression costs at most 32 nodes per operation. *)

type 'a t = Empty | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Empty

let node value zero one =
  match (value, zero, one) with
  | None, Empty, Empty -> Empty
  | _ -> Node { value; zero; one }

let rec cardinal = function
  | Empty -> 0
  | Node { value; zero; one } ->
      (match value with Some _ -> 1 | None -> 0) + cardinal zero + cardinal one

let add prefix v t =
  let a = Prefix.addr prefix and n = Prefix.len prefix in
  let rec go depth t =
    let value, zero, one =
      match t with
      | Empty -> (None, Empty, Empty)
      | Node { value; zero; one } -> (value, zero, one)
    in
    if depth = n then node (Some v) zero one
    else if Ipv4.bit a depth then node value zero (go (depth + 1) one)
    else node value (go (depth + 1) zero) one
  in
  go 0 t

let remove prefix t =
  let a = Prefix.addr prefix and n = Prefix.len prefix in
  let rec go depth t =
    match t with
    | Empty -> Empty
    | Node { value; zero; one } ->
        if depth = n then node None zero one
        else if Ipv4.bit a depth then node value zero (go (depth + 1) one)
        else node value (go (depth + 1) zero) one
  in
  go 0 t

let find prefix t =
  let a = Prefix.addr prefix and n = Prefix.len prefix in
  let rec go depth t =
    match t with
    | Empty -> None
    | Node { value; zero; one } ->
        if depth = n then value
        else if Ipv4.bit a depth then go (depth + 1) one
        else go (depth + 1) zero
  in
  go 0 t

let longest_match addr t =
  let rec go depth t best =
    match t with
    | Empty -> best
    | Node { value; zero; one } ->
        let best =
          match value with
          | Some v -> Some (Prefix.make addr depth, v)
          | None -> best
        in
        if depth = 32 then best
        else if Ipv4.bit addr depth then go (depth + 1) one best
        else go (depth + 1) zero best
  in
  go 0 t None

(* Reconstruct each stored prefix from the path taken: [acc_bits] holds the
   address bits chosen so far, packed into the high bits of an int. *)
let fold f t init =
  let rec go depth bits t acc =
    match t with
    | Empty -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> f (Prefix.make (Ipv4.of_int32_exn bits) depth) v acc
          | None -> acc
        in
        let acc = go (depth + 1) bits zero acc in
        go (depth + 1) (bits lor (1 lsl (31 - depth))) one acc
  in
  go 0 0 t init

(* [fold]'s walk over two tries at once.  A subtree the two share is
   skipped whole, so the cost is the changed bindings times the depth;
   where one side is empty, the other is enumerated. *)
let fold_diff f a b init =
  let report depth bits va vb acc =
    match (va, vb) with
    | None, None -> acc
    | Some x, Some y when x == y -> acc
    | _ -> f (Prefix.make (Ipv4.of_int32_exn bits) depth) va vb acc
  in
  let rec go depth bits a b acc =
    if a == b then acc
    else
      let va, za, oa =
        match a with
        | Empty -> (None, Empty, Empty)
        | Node { value; zero; one } -> (value, zero, one)
      and vb, zb, ob =
        match b with
        | Empty -> (None, Empty, Empty)
        | Node { value; zero; one } -> (value, zero, one)
      in
      let acc = report depth bits va vb acc in
      let acc = go (depth + 1) bits za zb acc in
      go (depth + 1) (bits lor (1 lsl (31 - depth))) oa ob acc
  in
  go 0 0 a b init

let covered prefix t =
  (* Walk down to the subtree rooted at [prefix], then enumerate it. *)
  let a = Prefix.addr prefix and n = Prefix.len prefix in
  let rec descend depth t =
    match t with
    | Empty -> Empty
    | Node { zero; one; _ } as node ->
        if depth = n then node
        else if Ipv4.bit a depth then descend (depth + 1) one
        else descend (depth + 1) zero
  in
  let rec go depth bits t acc =
    match t with
    | Empty -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> (Prefix.make (Ipv4.of_int32_exn bits) depth, v) :: acc
          | None -> acc
        in
        let acc = go (depth + 1) bits zero acc in
        go (depth + 1) (bits lor (1 lsl (31 - depth))) one acc
  in
  List.rev (go n (Ipv4.to_int a) (descend 0 t) [])

let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l
