type segment = Seq of int list | Set of int list
type t = segment list

let empty = []

let length t =
  let seg = function Seq l -> List.length l | Set _ -> 1 in
  List.fold_left (fun acc s -> acc + seg s) 0 t

let max_segment = 255

let prepend asn = function
  | Seq l :: rest when List.length l < max_segment -> Seq (asn :: l) :: rest
  | path -> Seq [ asn ] :: path

let rec prepend_n asn k path =
  if k <= 0 then path else prepend_n asn (k - 1) (prepend asn path)

let contains asn t =
  let in_seg = function Seq l | Set l -> List.mem asn l in
  List.exists in_seg t

let origin_as t =
  match List.rev t with
  | Seq l :: _ -> ( match List.rev l with last :: _ -> Some last | [] -> None)
  | Set _ :: _ | [] -> None

let neighbor_as = function
  | Seq (a :: _) :: _ -> Some a
  | Set (a :: _) :: _ -> Some a
  | (Seq [] | Set []) :: _ | [] -> None

let as_list t = List.concat_map (function Seq l | Set l -> l) t

let to_string t =
  let seg = function
    | Seq l -> String.concat " " (List.map string_of_int l)
    | Set l -> "{" ^ String.concat "," (List.map string_of_int l) ^ "}"
  in
  String.concat " " (List.map seg t)

let pp ppf t = Format.pp_print_string ppf (to_string t)
