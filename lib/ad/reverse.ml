open Cheffp_ir
open Ast

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type info = {
  float_scalars : string list;
  float_arrays : string list;
  ret_var : string;
  adjoint_of : string -> string;
  fresh : string -> string;
  lookup_ty : string -> Ast.ty option;
}

type hook_ctx = {
  lhs : Ast.lvalue;
  lhs_base : string;
  rhs : Ast.expr;
  adjoint_var : string;
  value_var : string;
  enclosing_loops : string list;
  info : info;
}

type hooks = {
  extra_params : Ast.param list;
  prologue : info -> Ast.stmt list;
  on_assign : hook_ctx -> Ast.stmt list;
  epilogue : info -> Ast.stmt list;
}

let no_hooks =
  {
    extra_params = [];
    prologue = (fun _ -> []);
    on_assign = (fun _ -> []);
    epilogue = (fun _ -> []);
  }

let grad_name ?(suffix = "_grad") name = name ^ suffix

let f64s = Sflt Cheffp_precision.Fp.F64
let f64 = Tscalar f64s

let derivative_params f =
  List.filter_map
    (fun p ->
      match p.pty with
      | Tscalar (Sflt _) ->
          Some { pname = "_d_" ^ p.pname; pty = f64; pmode = Out }
      | Tarr (Sflt _) ->
          Some { pname = "_d_" ^ p.pname; pty = Tarr f64s; pmode = Out }
      | Tscalar Sint | Tarr Sint -> None)
    f.params

let lv_expr = function Lvar v -> Var v | Lidx (a, i) -> Idx (a, i)

let simp = Optimize.fold_expr ~fast_math:true
let ( *: ) a b = simp (Binop (Mul, a, b))
let ( /: ) a b = simp (Binop (Div, a, b))
let neg e = simp (Unop (Neg, e))
let add a b = simp (Binop (Add, a, b))

let differentiate ?deriv ?(hooks = no_hooks) ?(use_activity = false)
    ?(suffix = "_grad") prog name =
  let deriv = match deriv with Some d -> d | None -> Deriv.default () in
  let f = func_exn prog name in
  (match f.ret with
  | Some (Sflt _) -> ()
  | Some Sint | None -> err "function %S must return a float to be differentiated" name);
  List.iter
    (fun p ->
      if p.pmode = Out then
        err "function %S has out parameter %S; only [In] parameters are supported"
          name p.pname)
    f.params;
  let nf =
    try Normalize.normalize_func prog f with
    | Normalize.Error m | Inline.Error m -> err "%s" m
  in
  let local_decls = Normalize.locals nf in
  let rest =
    let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
    drop (List.length local_decls) nf.body
  in
  (* The tail return becomes an assignment to a synthetic variable. *)
  let names = Rename.create () in
  Rename.reserve_func names nf;
  List.iter
    (fun p ->
      if Rename.mem names p.pname then
        err "hook parameter %S collides with a variable of %S" p.pname name;
      Rename.reserve names p.pname)
    hooks.extra_params;
  let fresh base = Rename.fresh names base in
  let ret_var = fresh "_ret" in
  let body_stmts, ret_expr =
    match List.rev rest with
    | Return (Some e) :: tl -> (List.rev tl, e)
    | _ -> err "function %S must end with a return statement" name
  in
  let rec reject_bad = function
    | Return _ -> err "function %S has a non-tail return" name
    | Push _ | Pop _ -> err "function %S contains push/pop; cannot differentiate generated code" name
    | Decl _ -> err "internal: declaration survived normalization in %S" name
    | If (_, a, b) ->
        List.iter reject_bad a;
        List.iter reject_bad b
    | For { body; _ } | While (_, body) -> List.iter reject_bad body
    | Assign _ | Call_stmt _ -> ()
  in
  List.iter reject_bad body_stmts;
  let body_stmts = body_stmts @ [ Assign (Lvar ret_var, ret_expr) ] in

  (* Variable typing for the normalized function. *)
  let var_tys : (string, ty) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace var_tys p.pname p.pty) nf.params;
  List.iter
    (fun (n, dty) ->
      Hashtbl.replace var_tys n
        (match dty with Dscalar s -> Tscalar s | Darr (s, _) -> Tarr s))
    local_decls;
  Hashtbl.replace var_tys ret_var f64;
  let is_float_base v =
    match Hashtbl.find_opt var_tys v with
    | Some (Tscalar (Sflt _)) | Some (Tarr (Sflt _)) -> true
    | Some (Tscalar Sint) | Some (Tarr Sint) -> false
    | None -> false (* loop counters *)
  in

  (* Activity (optional optimisation). *)
  let activity =
    if not use_activity then None
    else
      let independents =
        List.filter_map
          (fun p -> if is_float_base p.pname then Some p.pname else None)
          nf.params
      in
      Some
        (Activity.analyze
           ~func:{ nf with body = body_stmts }
           ~independents ~dependents:[ ret_var ])
  in
  let is_active v =
    match activity with None -> true | Some a -> Activity.active a v
  in

  (* Adjoint naming. *)
  let adj_tbl : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let float_params, float_array_params =
    List.fold_left
      (fun (fs, fas) p ->
        match p.pty with
        | Tscalar (Sflt _) -> (p.pname :: fs, fas)
        | Tarr (Sflt _) -> (fs, p.pname :: fas)
        | Tscalar Sint | Tarr Sint -> (fs, fas))
      ([], []) nf.params
  in
  let float_params = List.rev float_params
  and float_array_params = List.rev float_array_params in
  List.iter
    (fun p -> Hashtbl.replace adj_tbl p (fresh ("_d_" ^ p)))
    (float_params @ float_array_params);
  let float_locals, float_array_locals =
    List.fold_left
      (fun (fs, fas) (n, dty) ->
        match dty with
        | Dscalar (Sflt _) -> (n :: fs, fas)
        | Darr (Sflt _, _) -> (fs, n :: fas)
        | Dscalar Sint | Darr (Sint, _) -> (fs, fas))
      ([], []) local_decls
  in
  let float_locals = List.rev float_locals
  and float_array_locals = List.rev float_array_locals in
  List.iter
    (fun v -> Hashtbl.replace adj_tbl v (fresh ("_d_" ^ v)))
    (float_locals @ float_array_locals @ [ ret_var ]);
  let adj v =
    match Hashtbl.find_opt adj_tbl v with
    | Some a -> a
    | None -> err "internal: no adjoint for %S" v
  in
  let adj_lvalue = function
    | Lvar v -> Lvar (adj v)
    | Lidx (a, i) -> Lidx (adj a, i)
  in
  let adj_of_lv = function
    | Lvar v -> Var (adj v)
    | Lidx (a, i) -> Idx (adj a, i)
  in

  let info =
    {
      float_scalars = float_params @ float_locals @ [ ret_var ];
      float_arrays = float_array_params @ float_array_locals;
      ret_var;
      adjoint_of = adj;
      fresh;
      lookup_ty = (fun v -> Hashtbl.find_opt var_tys v);
    }
  in

  (* Adjoint accumulation for the right-hand side of an assignment:
     emits [d_r = d_r + seed] for every float reference in [e]. *)
  let rec accumulate e seed acc =
    match e with
    | Fconst _ | Iconst _ -> acc
    | Var x ->
        if is_float_base x && is_active x then
          Assign (Lvar (adj x), add (Var (adj x)) seed) :: acc
        else acc
    | Idx (a, i) ->
        if is_float_base a && is_active a then
          Assign (Lidx (adj a, i), add (Idx (adj a, i)) seed) :: acc
        else acc
    | Unop (Neg, u) -> accumulate u (neg seed) acc
    | Unop (Not, _) -> acc
    | Binop (Add, a, b) -> accumulate a seed (accumulate b seed acc)
    | Binop (Sub, a, b) -> accumulate a seed (accumulate b (neg seed) acc)
    | Binop (Mul, a, b) ->
        accumulate a (seed *: b) (accumulate b (seed *: a) acc)
    | Binop (Div, a, b) ->
        accumulate a (seed /: b)
          (accumulate b (neg ((seed *: a) /: (b *: b))) acc)
    | Binop ((Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> acc
    | Call (cname, args) -> (
        match Deriv.find deriv cname with
        | Some rule ->
            List.fold_left
              (fun acc (arg, new_seed) -> accumulate arg (simp new_seed) acc)
              acc
              (rule ~args ~seed)
        | None ->
            err
              "no derivative rule for intrinsic %S (register one in Deriv)"
              cname)
  in

  (* Generated bookkeeping integers, declared once at the top. *)
  let gen_int_decls = ref [] in
  let gen_int base =
    let n = fresh base in
    gen_int_decls := n :: !gen_int_decls;
    n
  in

  let lv_is_float = function
    | Lvar v | Lidx (v, _) -> (
        match Hashtbl.find_opt var_tys v with
        | Some (Tscalar (Sflt _)) | Some (Tarr (Sflt _)) -> true
        | _ -> false)
  in

  (* When the backward sweep reaches a reversed loop, every statement
     after the loop has been undone, so the state is the one the forward
     loop left. Bounds that read nothing the body writes therefore
     evaluate as they did before the forward loop and need no tape.
     Calls are opaque to [Ast.writes], so a body with one keeps it. *)
  let bounds_replay lo hi body =
    let rec has_call = function
      | Call_stmt _ -> true
      | If (_, a, b) -> List.exists has_call a || List.exists has_call b
      | For { body; _ } | While (_, body) -> List.exists has_call body
      | Decl _ | Assign _ | Return _ | Push _ | Pop _ -> false
    in
    (not (List.exists has_call body))
    &&
    let written = writes [] body in
    not (List.exists (fun v -> List.mem v written) (expr_vars (expr_vars [] lo) hi))
  in

  let rec rev_stmts loops stmts =
    let pairs = List.map (rev_stmt loops) stmts in
    ( List.concat_map fst pairs,
      List.concat_map snd (List.rev pairs) )

  and rev_stmt loops s =
    match s with
    | Assign (lv, e) when lv_is_float lv ->
        let base = lvalue_base lv in
        let fwd = [ Push lv; Assign (lv, e) ] in
        if not (is_active base) then (fwd, [ Pop lv ])
        else begin
          let t = fresh "_t" and v = fresh "_v" in
          let ctx =
            {
              lhs = lv;
              lhs_base = base;
              rhs = e;
              adjoint_var = t;
              value_var = v;
              enclosing_loops = loops;
              info;
            }
          in
          let bwd =
            [
              Decl { name = t; dty = Dscalar f64s; init = Some (adj_of_lv lv) };
              Decl { name = v; dty = Dscalar f64s; init = Some (lv_expr lv) };
              Pop lv;
              Assign (adj_lvalue lv, Fconst 0.);
            ]
            @ accumulate e (Var t) []
            @ hooks.on_assign ctx
          in
          (fwd, bwd)
        end
    | Assign (lv, _) -> ([ Push lv; s ], [ Pop lv ])
    | If (c, th, el) ->
        let cvar = gen_int "_cond" in
        let fth, bth = rev_stmts loops th in
        let fel, bel = rev_stmts loops el in
        ( [
            Assign (Lvar cvar, c);
            If (Var cvar, fth, fel);
            Push (Lvar cvar);
          ],
          [ Pop (Lvar cvar); If (Var cvar, bth, bel) ] )
    | For { var; lo; hi; down; body } when bounds_replay lo hi body ->
        let fb, bb = rev_stmts (var :: loops) body in
        ( [ For { var; lo; hi; down; body = fb } ],
          [ For { var; lo; hi; down = not down; body = bb } ] )
    | For { var; lo; hi; down; body } ->
        let lo_v = gen_int "_lo" and hi_v = gen_int "_hi" in
        let fb, bb = rev_stmts (var :: loops) body in
        ( [
            Assign (Lvar lo_v, lo);
            Assign (Lvar hi_v, hi);
            For { var; lo = Var lo_v; hi = Var hi_v; down; body = fb };
            Push (Lvar lo_v);
            Push (Lvar hi_v);
          ],
          [
            Pop (Lvar hi_v);
            Pop (Lvar lo_v);
            For { var; lo = Var lo_v; hi = Var hi_v; down = not down; body = bb };
          ] )
    | While (c, body) ->
        let cnt = gen_int "_cnt" in
        let replay = fresh "_replay" in
        let fb, bb = rev_stmts (replay :: loops) body in
        ( [
            Assign (Lvar cnt, Iconst 0);
            While (c, fb @ [ Assign (Lvar cnt, Binop (Add, Var cnt, Iconst 1)) ]);
            Push (Lvar cnt);
          ],
          [
            Pop (Lvar cnt);
            For
              {
                var = replay;
                lo = Iconst 0;
                hi = Var cnt;
                down = false;
                body = bb;
              };
          ] )
    | Call_stmt _ -> ([ s ], [])
    | Decl _ | Return _ | Push _ | Pop _ -> assert false
  in

  let fwd, bwd = rev_stmts [] body_stmts in

  let params =
    nf.params
    @ List.filter_map
        (fun p ->
          match p.pty with
          | Tscalar (Sflt _) ->
              Some { pname = adj p.pname; pty = f64; pmode = Out }
          | Tarr (Sflt _) ->
              Some { pname = adj p.pname; pty = Tarr f64s; pmode = Out }
          | Tscalar Sint | Tarr Sint -> None)
        nf.params
    @ hooks.extra_params
  in
  let local_decl_stmts =
    List.map (fun (n, dty) -> Decl { name = n; dty; init = None }) local_decls
  in
  let gen_decl_stmts =
    List.rev_map
      (fun n -> Decl { name = n; dty = Dscalar Sint; init = None })
      !gen_int_decls
  in
  let adjoint_decl_stmts =
    List.map
      (fun v -> Decl { name = adj v; dty = Dscalar f64s; init = None })
      (float_locals @ [ ret_var ])
    @ List.filter_map
        (fun (n, dty) ->
          match dty with
          | Darr (Sflt _, size) ->
              Some (Decl { name = adj n; dty = Darr (f64s, size); init = None })
          | Dscalar _ | Darr (Sint, _) -> None)
        local_decls
  in
  let body =
    local_decl_stmts
    @ [ Decl { name = ret_var; dty = Dscalar f64s; init = None } ]
    @ gen_decl_stmts @ adjoint_decl_stmts
    @ hooks.prologue info
    @ fwd
    @ [ Assign (Lvar (adj ret_var), Fconst 1.) ]
    @ bwd
    @ hooks.epilogue info
  in
  { fname = grad_name ~suffix name; params; ret = None; body }
