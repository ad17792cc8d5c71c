type t = { addr : Ipv4.t; len : int }

let mask_of_len len =
  if len = 0 then 0 else 0xFFFF_FFFF lxor ((1 lsl (32 - len)) - 1)

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  { addr = Ipv4.of_int32_exn (Ipv4.to_int addr land mask_of_len len); len }

let addr t = t.addr
let len t = t.len

let of_string s =
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "invalid prefix %S: missing '/'" s)
  | Some i -> (
      let addr_s = String.sub s 0 i in
      let len_s = String.sub s (i + 1) (String.length s - i - 1) in
      match Ipv4.of_string addr_s with
      | Error e -> Error e
      | Ok a -> (
          match int_of_string_opt len_s with
          | Some l when l >= 0 && l <= 32 ->
              let p = make a l in
              if Ipv4.equal p.addr a then Ok p
              else Error (Printf.sprintf "prefix %S is not canonical" s)
          | Some _ | None -> Error (Printf.sprintf "invalid prefix length in %S" s)))

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg e

let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string t.addr) t.len

let mem a t = Ipv4.to_int a land mask_of_len t.len = Ipv4.to_int t.addr

let subsumes p q = q.len >= p.len && mem q.addr p

let compare a b =
  match Ipv4.compare a.addr b.addr with 0 -> Int.compare a.len b.len | c -> c

let equal a b = compare a b = 0

let is_martian t =
  Ipv4.is_martian t.addr
  || (t.len < 8 && t.len > 0)
  || t.len > 24

let split t =
  if t.len >= 32 then None
  else
    let len = t.len + 1 in
    let low = make t.addr len in
    let high =
      make (Ipv4.of_int32_exn (Ipv4.to_int t.addr lor (1 lsl (32 - len)))) len
    in
    Some (low, high)

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
