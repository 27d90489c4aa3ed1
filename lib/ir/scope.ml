(* [Hashtbl.add] shadows and [Hashtbl.remove] uncovers the previous
   binding, so the table is the scope stack; each block remembers the
   names it declared so that [pop] can remove exactly those. *)
type 'b t = { tbl : (string, 'b) Hashtbl.t; mutable blocks : string list list }

let create () = { tbl = Hashtbl.create 64; blocks = [ [] ] }
let find_opt sc name = Hashtbl.find_opt sc.tbl name
let push sc = sc.blocks <- [] :: sc.blocks

let pop sc =
  match sc.blocks with
  | names :: rest ->
      List.iter (Hashtbl.remove sc.tbl) names;
      sc.blocks <- rest
  | [] -> assert false

let declare sc name b =
  match sc.blocks with
  | names :: rest ->
      Hashtbl.add sc.tbl name b;
      sc.blocks <- (name :: names) :: rest
  | [] -> assert false
