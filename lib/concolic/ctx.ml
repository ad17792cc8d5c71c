type input = (string * int) list

type t = {
  given : input;
  fields : (string, Cval.t) Hashtbl.t;
  mutable rev_path : (Expr.t * bool) list;
  mutable branch_count : int;
}

let create given =
  { given; fields = Hashtbl.create 16; rev_path = []; branch_count = 0 }

let field t name ~lo ~hi ~default =
  match Hashtbl.find_opt t.fields name with
  | Some cv -> cv
  | None ->
      let v = Expr.var name ~lo ~hi in
      let value =
        match List.assoc_opt name t.given with
        | Some x -> max lo (min hi x)
        | None -> max lo (min hi default)
      in
      let cv = Cval.of_var v value in
      Hashtbl.add t.fields name cv;
      cv

let branch t cv =
  t.branch_count <- t.branch_count + 1;
  let taken = Cval.truthy cv in
  if Cval.is_symbolic cv then t.rev_path <- (cv.Cval.sym, taken) :: t.rev_path;
  taken

let path t = List.rev t.rev_path
let branches t = t.branch_count
let input t = t.given

let input_update base overrides =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) base;
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) overrides;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let input_to_string i =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) i)
