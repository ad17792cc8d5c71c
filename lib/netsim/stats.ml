type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 16

let counter t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let incr t name = Stdlib.incr (counter t name)
let add t name n = counter t name := !(counter t name) + n
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0
