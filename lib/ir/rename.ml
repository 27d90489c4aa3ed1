(** Fresh-name generation shared by the transformation passes. *)

(* [next] remembers, per base, the suffix after the last one [fresh]
   handed out: every smaller suffix is taken, so probing starts there. *)
type t = { used : (string, unit) Hashtbl.t; next : (string, int) Hashtbl.t }

let create () = { used = Hashtbl.create 64; next = Hashtbl.create 16 }

let reserve t name = Hashtbl.replace t.used name ()
let mem t name = Hashtbl.mem t.used name

let reserve_func t (f : Ast.func) =
  let rec stmt = function
    | Ast.Decl { name; _ } -> reserve t name
    | Ast.For { var; body; _ } ->
        reserve t var;
        List.iter stmt body
    | Ast.If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | Ast.While (_, body) -> List.iter stmt body
    | Ast.Assign _ | Ast.Return _ | Ast.Call_stmt _ | Ast.Push _ | Ast.Pop _ ->
        ()
  in
  List.iter (fun p -> reserve t p.Ast.pname) f.params;
  List.iter stmt f.body

let fresh t base =
  if not (Hashtbl.mem t.used base) then begin
    reserve t base;
    base
  end
  else begin
    let rec go k =
      let candidate = Printf.sprintf "%s_%d" base k in
      if Hashtbl.mem t.used candidate then go (k + 1)
      else begin
        reserve t candidate;
        Hashtbl.replace t.next base (k + 1);
        candidate
      end
    in
    go (Option.value ~default:1 (Hashtbl.find_opt t.next base))
  end
