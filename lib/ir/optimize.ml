open Ast

let bool_i b = Iconst (if b then 1 else 0)

let rec expr_mentions p = function
  | Var v -> p v
  | Fconst _ | Iconst _ -> false
  | Idx (a, i) -> p a || expr_mentions p i
  | Unop (_, e) -> expr_mentions p e
  | Binop (_, a, b) -> expr_mentions p a || expr_mentions p b
  | Call (_, args) -> List.exists (expr_mentions p) args

let rec fold_expr ?(fast_math = true) ?(opaque = fun _ -> false) e =
  let f = fold_expr ~fast_math ~opaque in
  (* Dropping a binary64 literal operand ([e * 1.0 -> e]) narrows the
     static format of the expression when [e] only touches narrow-storage
     variables, which changes Source-mode rounding of the surrounding
     operation: keep such identities only for format-neutral operands. *)
  let fmt_neutral e = not (expr_mentions opaque e) in
  match e with
  | Fconst _ | Iconst _ | Var _ -> e
  | Idx (a, i) -> Idx (a, f i)
  | Unop (Neg, e) -> (
      match f e with
      | Fconst x -> Fconst (-.x)
      | Iconst n -> Iconst (-n)
      | Unop (Neg, inner) -> inner
      | e -> Unop (Neg, e))
  | Unop (Not, e) -> (
      match f e with Iconst n -> bool_i (n = 0) | e -> Unop (Not, e))
  | Binop (op, a, b) -> (
      let a = f a and b = f b in
      match (op, a, b) with
      (* integer constant folding *)
      | Add, Iconst x, Iconst y -> Iconst (x + y)
      | Sub, Iconst x, Iconst y -> Iconst (x - y)
      | Mul, Iconst x, Iconst y -> Iconst (x * y)
      | Div, Iconst x, Iconst y when y <> 0 -> Iconst (x / y)
      | Mod, Iconst x, Iconst y when y <> 0 -> Iconst (x mod y)
      | Eq, Iconst x, Iconst y -> bool_i (x = y)
      | Ne, Iconst x, Iconst y -> bool_i (x <> y)
      | Lt, Iconst x, Iconst y -> bool_i (x < y)
      | Le, Iconst x, Iconst y -> bool_i (x <= y)
      | Gt, Iconst x, Iconst y -> bool_i (x > y)
      | Ge, Iconst x, Iconst y -> bool_i (x >= y)
      | And, Iconst x, Iconst y -> bool_i (x <> 0 && y <> 0)
      | Or, Iconst x, Iconst y -> bool_i (x <> 0 || y <> 0)
      (* float constant folding *)
      | Add, Fconst x, Fconst y -> Fconst (x +. y)
      | Sub, Fconst x, Fconst y -> Fconst (x -. y)
      | Mul, Fconst x, Fconst y -> Fconst (x *. y)
      | Div, Fconst x, Fconst y -> Fconst (x /. y)
      | Eq, Fconst x, Fconst y -> bool_i (x = y)
      | Ne, Fconst x, Fconst y -> bool_i (x <> y)
      | Lt, Fconst x, Fconst y -> bool_i (x < y)
      | Le, Fconst x, Fconst y -> bool_i (x <= y)
      | Gt, Fconst x, Fconst y -> bool_i (x > y)
      | Ge, Fconst x, Fconst y -> bool_i (x >= y)
      (* identities (exact, format-neutrality checked) *)
      | Add, e, Fconst 0. when fmt_neutral e -> e
      | Add, Fconst 0., e when fmt_neutral e -> e
      | Sub, e, Fconst 0. when fmt_neutral e -> e
      | Sub, Fconst 0., e when fmt_neutral e -> f (Unop (Neg, e))
      | Mul, e, Fconst 1. when fmt_neutral e -> e
      | Mul, Fconst 1., e when fmt_neutral e -> e
      | Div, e, Fconst 1. when fmt_neutral e -> e
      | Mul, e, Fconst -1.0 when fmt_neutral e -> f (Unop (Neg, e))
      | Mul, Fconst -1.0, e when fmt_neutral e -> f (Unop (Neg, e))
      | Add, e, Iconst 0 | Add, Iconst 0, e -> e
      | Sub, e, Iconst 0 -> e
      | Mul, e, Iconst 1 | Mul, Iconst 1, e -> e
      (* fast-math absorbers (wrong for NaN/Inf operands) *)
      | Mul, _, Fconst 0. when fast_math -> Fconst 0.
      | Mul, Fconst 0., _ when fast_math -> Fconst 0.
      | Mul, _, Iconst 0 when fast_math -> Iconst 0
      | Mul, Iconst 0, _ when fast_math -> Iconst 0
      | And, e, Iconst 1 | And, Iconst 1, e -> e
      | And, _, Iconst 0 | And, Iconst 0, _ -> Iconst 0
      | Or, e, Iconst 0 | Or, Iconst 0, e -> e
      | Or, _, Iconst n when n <> 0 -> Iconst 1
      | op, a, b -> Binop (op, a, b))
  | Call (name, args) -> Call (name, List.map f args)

(* ------------------------------------------------------------------ *)
(* Copy / constant propagation within basic blocks.                   *)

module Smap = Map.Make (String)

(* Map from variable to the Var/const expression it currently equals.
   Kill rules: assigning to [v] removes the binding of [v] and any
   binding whose value mentions [v]. *)
let kill env v =
  Smap.filter
    (fun key value ->
      key <> v
      &&
      let rec mentions = function
        | Var x -> x = v
        | Fconst _ | Iconst _ -> false
        | Idx (a, i) -> a = v || mentions i
        | Unop (_, e) -> mentions e
        | Binop (_, a, b) -> mentions a || mentions b
        | Call (_, args) -> List.exists mentions args
      in
      not (mentions value))
    env

let rec prop_expr env = function
  | Var v as e -> ( match Smap.find_opt v env with Some r -> r | None -> e)
  | (Fconst _ | Iconst _) as e -> e
  | Idx (a, i) -> Idx (a, prop_expr env i)
  | Unop (op, e) -> Unop (op, prop_expr env e)
  | Binop (op, a, b) -> Binop (op, prop_expr env a, prop_expr env b)
  | Call (f, args) -> Call (f, List.map (prop_expr env) args)

let rec prop_stmts ~fast_math ~opaque env stmts =
  let prop_stmts = prop_stmts ~fast_math ~opaque in
  let fold_expr ?fast_math:(fm = fast_math) e =
    fold_expr ~fast_math:fm ~opaque e
  in
  match stmts with
  | [] -> (env, [])
  | s :: rest ->
      let env, s =
        match s with
        | Decl ({ init; dty; _ } as d) ->
            let dty =
              match dty with
              | Dscalar _ -> dty
              | Darr (sc, size) ->
                  Darr (sc, fold_expr ~fast_math (prop_expr env size))
            in
            let init = Option.map (fun e -> fold_expr ~fast_math (prop_expr env e)) init in
            let env = kill env d.name in
            let env =
              match init with
              (* forwarding through an opaque target skips its store
                 rounding; forwarding an opaque source narrows the
                 static format of downstream operations *)
              | Some ((Fconst _ | Iconst _) as simple) when not (opaque d.name)
                ->
                  Smap.add d.name simple env
              | Some (Var src) when (not (opaque d.name)) && not (opaque src)
                ->
                  Smap.add d.name (Var src) env
              | _ -> env
            in
            (env, Decl { d with dty; init })
        | Assign (lv, e) -> (
            let e = fold_expr ~fast_math (prop_expr env e) in
            match lv with
            | Lvar v ->
                let env = kill env v in
                let env =
                  if opaque v then env
                  else
                    match e with
                    | (Fconst _ | Iconst _) as c -> Smap.add v c env
                    | Var src when src <> v && not (opaque src) ->
                        Smap.add v (Var src) env
                    | _ -> env
                in
                (env, Assign (lv, e))
            | Lidx (a, i) ->
                let i = fold_expr ~fast_math (prop_expr env i) in
                (* Writing a[i] invalidates bindings mentioning a. *)
                (kill env a, Assign (Lidx (a, i), e)))
        | If (c, t, e) -> (
            let c = fold_expr ~fast_math (prop_expr env c) in
            match (c, fast_math) with
            | Iconst n, _ ->
                let branch = if n <> 0 then t else e in
                let env', branch = prop_stmts env branch in
                (* Splice: return the branch as a block via If(1,branch,[]).
                   We instead return statements directly by re-wrapping. *)
                (env', If (Iconst 1, branch, []))
            | _ ->
                let _, t = prop_stmts env t in
                let _, e = prop_stmts env e in
                (* Conservative join: drop all facts, unless the branches
                   only store array elements (the estimator's range
                   tracking), which invalidates just the facts that
                   mention the stored arrays. *)
                let rec join env = function
                  | [] -> env
                  | Assign (Lidx (a, _), _) :: rest -> join (kill env a) rest
                  | _ -> Smap.empty
                in
                (join env (t @ e), If (c, t, e)))
        | For ({ lo; hi; body; _ } as l) ->
            let lo = fold_expr ~fast_math (prop_expr env lo) in
            let hi = fold_expr ~fast_math (prop_expr env hi) in
            (* The body runs many times: start from no facts, end with none. *)
            let _, body = prop_stmts Smap.empty body in
            (Smap.empty, For { l with lo; hi; body })
        | While (c, body) ->
            let _, body = prop_stmts Smap.empty body in
            (Smap.empty, While (c, body))
        | Return e ->
            (env, Return (Option.map (fun e -> fold_expr ~fast_math (prop_expr env e)) e))
        | Call_stmt (f, args) ->
            ( env,
              Call_stmt
                (f, List.map (fun e -> fold_expr ~fast_math (prop_expr env e)) args) )
        | Push (Lidx (a, i)) ->
            (env, Push (Lidx (a, fold_expr ~fast_math (prop_expr env i))))
        | Pop (Lvar v) -> (kill env v, s)
        | Pop (Lidx (a, i)) ->
            (kill env a, Pop (Lidx (a, fold_expr ~fast_math (prop_expr env i))))
        | Push (Lvar _) -> (env, s)
      in
      let env, rest = prop_stmts env rest in
      (env, s :: rest)

(* Flattens If(1, block, []) markers produced by constant branches. *)
let rec flatten stmts =
  List.concat_map
    (function
      | If (Iconst 1, t, []) -> flatten t
      | If (Iconst 0, _, e) -> flatten e
      | If (c, t, e) -> [ If (c, flatten t, flatten e) ]
      | For l -> [ For { l with body = flatten l.body } ]
      | While (c, body) -> [ While (c, flatten body) ]
      | s -> [ s ])
    stmts

(* ------------------------------------------------------------------ *)
(* Dead local elimination.                                            *)

let reads_of_func f =
  let reads = Hashtbl.create 64 in
  let mark v = Hashtbl.replace reads v () in
  let rec expr = function
    | Var v -> mark v
    | Fconst _ | Iconst _ -> ()
    | Idx (a, i) ->
        mark a;
        expr i
    | Unop (_, e) -> expr e
    | Binop (_, a, b) ->
        expr a;
        expr b
    | Call (_, args) -> List.iter expr args
  in
  let lvalue_reads = function
    | Lvar _ -> ()
    | Lidx (a, i) ->
        mark a;
        expr i
  in
  let rec stmt = function
    | Decl { dty = Darr (_, size); init; _ } ->
        expr size;
        Option.iter expr init
    | Decl { init; _ } -> Option.iter expr init
    | Assign (lv, e) ->
        lvalue_reads lv;
        expr e
    | If (c, t, e) ->
        expr c;
        List.iter stmt t;
        List.iter stmt e
    | For { lo; hi; body; _ } ->
        expr lo;
        expr hi;
        List.iter stmt body
    | While (c, body) ->
        expr c;
        List.iter stmt body
    | Return e -> Option.iter expr e
    | Call_stmt (_, args) -> List.iter expr args
    | Push lv ->
        (* pushing reads the location *)
        (match lv with Lvar v -> mark v | Lidx _ -> ());
        lvalue_reads lv
    | Pop lv ->
        (* a pop writes the location but keeps the stack balanced: the
           location itself is not a read, the index is *)
        lvalue_reads lv
  in
  List.iter stmt f.body;
  reads

let dead_local_elim f =
  let protected = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace protected p.pname ()) f.params;
  (* Variables involved in push/pop must survive: the value stack
     discipline depends on them. *)
  let rec protect_pushpop = function
    | Push lv | Pop lv -> Hashtbl.replace protected (lvalue_base lv) ()
    | If (_, t, e) ->
        List.iter protect_pushpop t;
        List.iter protect_pushpop e
    | For { body; _ } | While (_, body) -> List.iter protect_pushpop body
    | Decl _ | Assign _ | Return _ | Call_stmt _ -> ()
  in
  List.iter protect_pushpop f.body;
  let reads = reads_of_func f in
  let dead v = (not (Hashtbl.mem protected v)) && not (Hashtbl.mem reads v) in
  let rec clean stmts =
    List.filter_map
      (function
        | Decl { name; _ } when dead name -> None
        | Assign (Lvar v, _) when dead v -> None
        | If (c, t, e) -> Some (If (c, clean t, clean e))
        | For l -> Some (For { l with body = clean l.body })
        | While (c, body) -> Some (While (c, clean body))
        | s -> Some s)
      stmts
  in
  { f with body = clean f.body }

(* Variables whose storage format is narrower than binary64 round on
   every store; forwarding values through them (copy/const propagation,
   CSE availability) would skip that rounding and change mixed-precision
   semantics, so they are opaque to those rewrites. *)
let declared_narrow f =
  let narrow = Hashtbl.create 8 in
  let scalar_narrow = function
    | Sflt fmt -> not (Cheffp_precision.Fp.equal_format fmt Cheffp_precision.Fp.F64)
    | Sint -> false
  in
  List.iter
    (fun p ->
      match p.pty with
      | Tscalar sc | Tarr sc ->
          if scalar_narrow sc then Hashtbl.replace narrow p.pname ())
    f.params;
  let rec stmt = function
    | Decl { name; dty = Dscalar sc; _ } | Decl { name; dty = Darr (sc, _); _ }
      ->
        if scalar_narrow sc then Hashtbl.replace narrow name ()
    | If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | For { body; _ } | While (_, body) -> List.iter stmt body
    | Assign _ | Return _ | Call_stmt _ | Push _ | Pop _ -> ()
  in
  List.iter stmt f.body;
  narrow

let optimize_func ?(fast_math = true) ?(cse = true) ?(opaque = fun _ -> false) f =
  let narrow = declared_narrow f in
  let opaque v = opaque v || Hashtbl.mem narrow v in
  let f = if cse then Cse.cse_func ~opaque f else f in
  let pass f =
    let _, body = prop_stmts ~fast_math ~opaque Smap.empty f.body in
    let f = { f with body = flatten body } in
    dead_local_elim f
  in
  let rec fixpoint k f =
    if k = 0 then f
    else
      let f' = pass f in
      if f' = f then f else fixpoint (k - 1) f'
  in
  fixpoint 8 f
