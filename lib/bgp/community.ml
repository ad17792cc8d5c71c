type t = int

let make asn tag =
  if asn < 0 || asn > 0xFFFF || tag < 0 || tag > 0xFFFF then
    invalid_arg "Community.make: components must be 16-bit";
  (asn lsl 16) lor tag

let of_int32_exn v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Community.of_int32_exn";
  v

let to_int t = t
let asn t = t lsr 16
let tag t = t land 0xFFFF

let no_export = 0xFFFFFF01
let no_advertise = 0xFFFFFF02

let of_string s =
  match s with
  | "no-export" -> Ok no_export
  | "no-advertise" -> Ok no_advertise
  | _ -> (
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "invalid community %S" s)
      | Some i -> (
          let a = String.sub s 0 i in
          let b = String.sub s (i + 1) (String.length s - i - 1) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a >= 0 && a <= 0xFFFF && b >= 0 && b <= 0xFFFF ->
              Ok (make a b)
          | _ -> Error (Printf.sprintf "invalid community %S" s)))

let to_string t =
  if t = no_export then "no-export"
  else if t = no_advertise then "no-advertise"
  else Printf.sprintf "%d:%d" (asn t) (tag t)

let compare = Int.compare
let equal = Int.equal
