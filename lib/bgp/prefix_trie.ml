(* Path-compressed (PATRICIA-style) persistent binary trie.  Each node
   carries its own prefix as the key; a node without a value branches,
   so both its children are non-empty, and its key is the longest
   prefix its two subtrees share.  The shape is therefore a function of
   the bound prefixes alone, and a lookup visits at most one node per
   bound prefix on its path, never one per bit. *)

type 'a t = Empty | Node of { key : Prefix.t; value : 'a option; zero : 'a t; one : 'a t }

let empty = Empty

(* The high [len] bits of a 32-bit address. *)
let mask len = if len = 0 then 0 else 0xFFFF_FFFF lxor ((1 lsl (32 - len)) - 1)

(* Bit [i] of a 32-bit address, counting from the most significant. *)
let bit a i = (a lsr (31 - i)) land 1 = 1
let addr_of p = Ipv4.to_int (Prefix.addr p)

(* The number of leading bits two 32-bit addresses share. *)
let shared_bits a b =
  let x = ref (a lxor b) and width = ref 0 in
  if !x >= 0x10000 then (x := !x lsr 16; width := 16);
  if !x >= 0x100 then (x := !x lsr 8; width := !width + 8);
  if !x >= 0x10 then (x := !x lsr 4; width := !width + 4);
  if !x >= 0x4 then (x := !x lsr 2; width := !width + 2);
  32 - (!width + if !x >= 2 then 2 else !x)

(* A valueless node with one child is that child; with none, nothing. *)
let node key value zero one =
  match (value, zero, one) with
  | None, Empty, t | None, t, Empty -> t
  | _ -> Node { key; value; zero; one }

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Node { key; value; zero; one } ->
      let acc = match value with Some v -> f key v acc | None -> acc in
      fold f one (fold f zero acc)

let cardinal t = fold (fun _ _ n -> n + 1) t 0
let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let add prefix v t =
  let a = addr_of prefix and n = Prefix.len prefix in
  let leaf = Node { key = prefix; value = Some v; zero = Empty; one = Empty } in
  let rec go t =
    match t with
    | Empty -> leaf
    | Node ({ key; _ } as nd) ->
        let k = Prefix.len key and ka = addr_of key in
        let c = min (shared_bits a ka) (min k n) in
        if c = k && c = n then Node { nd with value = Some v }
        else if c = k then
          if bit a k then Node { nd with one = go nd.one } else Node { nd with zero = go nd.zero }
        else if c = n then
          if bit ka n then Node { key = prefix; value = Some v; zero = Empty; one = t }
          else Node { key = prefix; value = Some v; zero = t; one = Empty }
        else
          let key = Prefix.make (Prefix.addr prefix) c in
          if bit a c then Node { key; value = None; zero = t; one = leaf }
          else Node { key; value = None; zero = leaf; one = t }
  in
  go t

(* A prefix that is not bound leaves the trie physically as it was. *)
let remove prefix t =
  let a = addr_of prefix and n = Prefix.len prefix in
  let rec go t =
    match t with
    | Empty -> t
    | Node { key; value; zero; one } ->
        let k = Prefix.len key in
        if k > n || a land mask k <> addr_of key then t
        else if k = n then if Option.is_none value then t else node key None zero one
        else if bit a k then
          let one' = go one in
          if one' == one then t else node key value zero one'
        else
          let zero' = go zero in
          if zero' == zero then t else node key value zero' one
  in
  go t

(* Descendants extend their ancestors' keys, so only the node the walk
   ends at needs comparing with the prefix. *)
let find prefix t =
  let a = addr_of prefix and n = Prefix.len prefix in
  let rec go t =
    match t with
    | Empty -> None
    | Node { key; value; zero; one } ->
        let k = Prefix.len key in
        if k < n then go (if bit a k then one else zero)
        else if k = n && addr_of key = a then value
        else None
  in
  go t

let mem prefix t = Option.is_some (find prefix t)

let longest_match addr t =
  let a = Ipv4.to_int addr in
  let rec go t best =
    match t with
    | Empty -> best
    | Node { key; value; zero; one } ->
        let k = Prefix.len key in
        if a land mask k <> addr_of key then best
        else
          let best = match value with Some _ -> t | None -> best in
          if k = 32 then best else go (if bit a k then one else zero) best
  in
  match go t Empty with
  | Node { key; value = Some v; _ } -> Some (key, v)
  | Node { value = None; _ } | Empty -> None

let covered prefix t =
  let a = addr_of prefix and n = Prefix.len prefix in
  (* The subtree of every key that extends [prefix]. *)
  let rec descend t =
    match t with
    | Empty -> Empty
    | Node { key; zero; one; _ } ->
        let k = Prefix.len key in
        if k >= n then if addr_of key land mask n = a then t else Empty
        else if a land mask k <> addr_of key then Empty
        else descend (if bit a k then one else zero)
  in
  List.rev (fold (fun p v acc -> (p, v) :: acc) (descend t) [])

(* [fold]'s walk over two tries at once.  Where both have a node with
   one key they are compared in place; where one key extends the other,
   the shorter one's node is reported against nothing and the longer
   trie goes down the side its key selects; disjoint subtrees are
   enumerated whole, the lower one first.  A subtree the two share is
   skipped, so the cost is the changed bindings times the depth. *)
let fold_diff f a b init =
  let report key va vb acc =
    match (va, vb) with
    | None, None -> acc
    | Some x, Some y when x == y -> acc
    | _ -> f key va vb acc
  in
  let only_a t acc = fold (fun p v acc -> f p (Some v) None acc) t acc in
  let only_b t acc = fold (fun p v acc -> f p None (Some v) acc) t acc in
  let rec go a b acc =
    if a == b then acc
    else
      match (a, b) with
      | Empty, _ -> only_b b acc
      | _, Empty -> only_a a acc
      | Node na, Node nb ->
          let ka = Prefix.len na.key and kb = Prefix.len nb.key in
          let aa = addr_of na.key and ab = addr_of nb.key in
          let c = min (shared_bits aa ab) (min ka kb) in
          if c = ka && c = kb then
            let acc = report na.key na.value nb.value acc in
            go na.one nb.one (go na.zero nb.zero acc)
          else if c = ka then
            (* [b] lies under one side of [a]'s node. *)
            let acc = report na.key na.value None acc in
            if bit ab ka then go na.one b (only_a na.zero acc)
            else only_a na.one (go na.zero b acc)
          else if c = kb then
            let acc = report nb.key None nb.value acc in
            if bit aa kb then go a nb.one (only_b nb.zero acc)
            else only_b nb.one (go a nb.zero acc)
          else if bit aa c then only_a a (only_b b acc)
          else only_b b (only_a a acc)
  in
  go a b init

let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l
