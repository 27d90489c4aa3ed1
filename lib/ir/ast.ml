(** Abstract syntax of MiniFP, the small imperative floating-point
    language all analyses in this project transform.

    MiniFP plays the role C++/Clang ASTs play for the paper's tool: an
    imperative language with scalar and array variables, [for]/[while]
    loops, branches, and calls to math intrinsics. Programs are pure data;
    every transformation (AD, error-estimation injection, optimization)
    maps ASTs to ASTs, and generated functions can be pretty-printed back
    to source ({!Pp}) exactly like a source-transformation tool. *)

type scalar =
  | Sint
  | Sflt of Cheffp_precision.Fp.format
      (** Floats carry a declared storage format; the reference programs
          use [F64] everywhere and mixed-precision configurations demote
          variables externally (see [Cheffp_precision.Config]). *)

type ty = Tscalar of scalar | Tarr of scalar  (** arrays have unknown extent in types *)

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod  (** integers only *)
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And  (** non-short-circuit; operands are integers *)
  | Or

type expr =
  | Fconst of float
  | Iconst of int
  | Var of string
  | Idx of string * expr  (** [a[i]] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
      (** intrinsic or user-function call; user calls in expressions must
          be to functions with only [In] parameters *)

type lvalue = Lvar of string | Lidx of string * expr

type decl_ty =
  | Dscalar of scalar
  | Darr of scalar * expr  (** local array with a size expression *)

type stmt =
  | Decl of { name : string; dty : decl_ty; init : expr option }
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | For of { var : string; lo : expr; hi : expr; down : bool; body : stmt list }
      (** [down = false]: i = lo, lo+1, ..., hi-1 (half-open, upward).
          [down = true]: i = hi-1, hi-2, ..., lo. Bounds are evaluated
          once, before the first iteration. *)
  | While of expr * stmt list
  | Return of expr option
  | Call_stmt of string * expr list  (** user-function call for its effects *)
  | Push of lvalue
      (** evaluate the location and push its value on the run-time value
          stack; only emitted by the AD transformation (paper Fig. 2) *)
  | Pop of lvalue  (** pop the value stack into the location *)

type mode = In | Out

type param = { pname : string; pty : ty; pmode : mode }

type func = {
  fname : string;
  params : param list;
  ret : scalar option;  (** [None] for void functions *)
  body : stmt list;
}

type program = { funcs : func list }

let find_func prog name = List.find_opt (fun f -> f.fname = name) prog.funcs

let func_exn prog name =
  match find_func prog name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "MiniFP: no function named %S" name)

let add_func prog f = { funcs = prog.funcs @ [ f ] }

let lvalue_base = function Lvar v -> v | Lidx (v, _) -> v

(* Variables an expression reads (the array of an element included),
   prepended to [acc]. *)
let rec expr_vars acc = function
  | Fconst _ | Iconst _ -> acc
  | Var v -> v :: acc
  | Idx (a, i) -> expr_vars (a :: acc) i
  | Unop (_, e) -> expr_vars acc e
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Call (_, args) -> List.fold_left expr_vars acc args

(* Variables a statement list may write, prepended to [acc]: assignment
   and pop targets (the base of an array element), declared names and
   loop counters. Calls are not looked into: after inlining only
   intrinsics remain, and they write no variable. *)
let rec writes acc stmts =
  List.fold_left
    (fun acc -> function
      | Decl { name; _ } -> name :: acc
      | Assign (lv, _) | Pop lv -> lvalue_base lv :: acc
      | If (_, a, b) -> writes (writes acc a) b
      | For { var; body; _ } -> writes (var :: acc) body
      | While (_, body) -> writes acc body
      | Return _ | Call_stmt _ | Push _ -> acc)
    acc stmts

(* -------------------------------------------------------------------- *)
(* Builders: an OCaml eDSL for writing MiniFP programs concisely.       *)

module Build = struct
  let f64 = Tscalar (Sflt Cheffp_precision.Fp.F64)
  let f32 = Tscalar (Sflt Cheffp_precision.Fp.F32)
  let int_ty = Tscalar Sint
  let f64_arr = Tarr (Sflt Cheffp_precision.Fp.F64)
  let int_arr = Tarr Sint
  let fc x = Fconst x
  let ic n = Iconst n
  let v name = Var name
  let idx a i = Idx (a, i)
  let ( + ) a b = Binop (Add, a, b)
  let ( - ) a b = Binop (Sub, a, b)
  let ( * ) a b = Binop (Mul, a, b)
  let ( / ) a b = Binop (Div, a, b)
  let ( % ) a b = Binop (Mod, a, b)
  let ( = ) a b = Binop (Eq, a, b)
  let ( <> ) a b = Binop (Ne, a, b)
  let ( < ) a b = Binop (Lt, a, b)
  let ( <= ) a b = Binop (Le, a, b)
  let ( > ) a b = Binop (Gt, a, b)
  let ( >= ) a b = Binop (Ge, a, b)
  let ( && ) a b = Binop (And, a, b)
  let ( || ) a b = Binop (Or, a, b)
  let neg a = Unop (Neg, a)
  let call f args = Call (f, args)
  let sqrt_ x = Call ("sqrt", [ x ])
  let exp_ x = Call ("exp", [ x ])
  let log_ x = Call ("log", [ x ])
  let sin_ x = Call ("sin", [ x ])
  let cos_ x = Call ("cos", [ x ])
  let pow_ x y = Call ("pow", [ x; y ])
  let fabs_ x = Call ("fabs", [ x ])
  let itof x = Call ("itof", [ x ])
  let decl ?init name dty = Decl { name; dty; init }
  let dfloat ?init name = decl ?init name (Dscalar (Sflt Cheffp_precision.Fp.F64))
  let dint ?init name = decl ?init name (Dscalar Sint)
  let darr name size = decl name (Darr (Sflt Cheffp_precision.Fp.F64, size))
  let set name e = Assign (Lvar name, e)
  let seti a i e = Assign (Lidx (a, i), e)
  let if_ c t e = If (c, t, e)
  let for_ var lo hi body = For { var; lo; hi; down = false; body }
  let while_ c body = While (c, body)
  let ret e = Return (Some e)
  let param ?(mode = In) pname pty = { pname; pty; pmode = mode }
  let out_param pname pty = { pname; pty; pmode = Out }

  let func ?(ret = Some (Sflt Cheffp_precision.Fp.F64)) fname params body =
    { fname; params; ret; body }
end
