open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Cost = Cheffp_precision.Cost
module Growable = Cheffp_util.Growable

exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

type env = {
  fl : float array;  (** float scalar slots *)
  it : int array;  (** int scalar slots *)
  fa : float array array;  (** float array slots *)
  ia : int array array;  (** int array slots *)
  fstack : Growable.Float.t;
  istack : int Growable.t;
  mutable ipeak : int;
  counter : Cost.Counter.t;
      (** the run's cost accumulator; metered compilations charge into
          it, so one compiled value can serve many runs (and domains),
          each with its own counter *)
}

exception Creturn_f of float
exception Creturn_i of int

type binding =
  | Bf of int * Fp.format
  | Bi of int
  | Bfa of int * Fp.format
  | Bia of int

(* Compile-time scope: stack of frames mapping names to slots. *)
type scope = { mutable frames : (string * binding) list list }

let scope_find sc name =
  let rec go = function
    | [] -> fail "undeclared variable %S" name
    | frame :: rest -> (
        match List.assoc_opt name frame with Some b -> b | None -> go rest)
  in
  go sc.frames

let scope_push sc = sc.frames <- [] :: sc.frames

let scope_pop sc =
  match sc.frames with
  | _ :: rest -> sc.frames <- rest
  | [] -> assert false

let scope_declare sc name b =
  match sc.frames with
  | frame :: rest -> sc.frames <- ((name, b) :: frame) :: rest
  | [] -> assert false

type t = {
  cfunc : Ast.func;
  run_body : env -> unit;
  nfl : int;
  nit : int;
  nfa : int;
  nia : int;
  out_scalars : (string * binding) list;
  param_bindings : (Ast.param * binding) list;
  config : Config.t;
  default_counter : Cost.Counter.t option;
}

(* ------------------------------------------------------------------ *)

(* Shape of a float operand. *)
type leaf = Slot of int | Const of float | Other of (env -> float)

(* One closure per (operator, left shape, right shape): slot and literal
   operands are read inside the operator's closure, so only its result
   is boxed. Written out case by case because a shared combinator
   would box the operands again. *)
let arith op la lb : env -> float =
  match (op, la, lb) with
  | Add, Slot i, Slot j -> fun env -> env.fl.(i) +. env.fl.(j)
  | Add, Slot i, Const y -> fun env -> env.fl.(i) +. y
  | Add, Slot i, Other g -> fun env -> env.fl.(i) +. g env
  | Add, Const x, Slot j -> fun env -> x +. env.fl.(j)
  | Add, Const x, Const y -> fun _ -> x +. y
  | Add, Const x, Other g -> fun env -> x +. g env
  | Add, Other f, Slot j -> fun env -> f env +. env.fl.(j)
  | Add, Other f, Const y -> fun env -> f env +. y
  | Add, Other f, Other g -> fun env -> f env +. g env
  | Sub, Slot i, Slot j -> fun env -> env.fl.(i) -. env.fl.(j)
  | Sub, Slot i, Const y -> fun env -> env.fl.(i) -. y
  | Sub, Slot i, Other g -> fun env -> env.fl.(i) -. g env
  | Sub, Const x, Slot j -> fun env -> x -. env.fl.(j)
  | Sub, Const x, Const y -> fun _ -> x -. y
  | Sub, Const x, Other g -> fun env -> x -. g env
  | Sub, Other f, Slot j -> fun env -> f env -. env.fl.(j)
  | Sub, Other f, Const y -> fun env -> f env -. y
  | Sub, Other f, Other g -> fun env -> f env -. g env
  | Mul, Slot i, Slot j -> fun env -> env.fl.(i) *. env.fl.(j)
  | Mul, Slot i, Const y -> fun env -> env.fl.(i) *. y
  | Mul, Slot i, Other g -> fun env -> env.fl.(i) *. g env
  | Mul, Const x, Slot j -> fun env -> x *. env.fl.(j)
  | Mul, Const x, Const y -> fun _ -> x *. y
  | Mul, Const x, Other g -> fun env -> x *. g env
  | Mul, Other f, Slot j -> fun env -> f env *. env.fl.(j)
  | Mul, Other f, Const y -> fun env -> f env *. y
  | Mul, Other f, Other g -> fun env -> f env *. g env
  | Div, Slot i, Slot j -> fun env -> env.fl.(i) /. env.fl.(j)
  | Div, Slot i, Const y -> fun env -> env.fl.(i) /. y
  | Div, Slot i, Other g -> fun env -> env.fl.(i) /. g env
  | Div, Const x, Slot j -> fun env -> x /. env.fl.(j)
  | Div, Const x, Const y -> fun _ -> x /. y
  | Div, Const x, Other g -> fun env -> x /. g env
  | Div, Other f, Slot j -> fun env -> f env /. env.fl.(j)
  | Div, Other f, Const y -> fun env -> f env /. y
  | Div, Other f, Other g -> fun env -> f env /. g env
  | _ -> assert false

let eval = function
  | Slot i -> fun env -> env.fl.(i)
  | Const x -> fun _ -> x
  | Other g -> g

(* Float comparisons read slot operands in place too (a literal is
   already boxed, so it stays a closure). *)
let compare_floats op la lb : env -> int =
  match (op, la, lb) with
  | Eq, Slot i, Slot j -> fun env -> if env.fl.(i) = env.fl.(j) then 1 else 0
  | Eq, Slot i, _ -> let g = eval lb in fun env -> if env.fl.(i) = g env then 1 else 0
  | Eq, _, Slot j -> let f = eval la in fun env -> if f env = env.fl.(j) then 1 else 0
  | Eq, _, _ -> let f = eval la and g = eval lb in fun env -> if f env = g env then 1 else 0
  | Ne, Slot i, Slot j -> fun env -> if env.fl.(i) <> env.fl.(j) then 1 else 0
  | Ne, Slot i, _ -> let g = eval lb in fun env -> if env.fl.(i) <> g env then 1 else 0
  | Ne, _, Slot j -> let f = eval la in fun env -> if f env <> env.fl.(j) then 1 else 0
  | Ne, _, _ -> let f = eval la and g = eval lb in fun env -> if f env <> g env then 1 else 0
  | Lt, Slot i, Slot j -> fun env -> if env.fl.(i) < env.fl.(j) then 1 else 0
  | Lt, Slot i, _ -> let g = eval lb in fun env -> if env.fl.(i) < g env then 1 else 0
  | Lt, _, Slot j -> let f = eval la in fun env -> if f env < env.fl.(j) then 1 else 0
  | Lt, _, _ -> let f = eval la and g = eval lb in fun env -> if f env < g env then 1 else 0
  | Le, Slot i, Slot j -> fun env -> if env.fl.(i) <= env.fl.(j) then 1 else 0
  | Le, Slot i, _ -> let g = eval lb in fun env -> if env.fl.(i) <= g env then 1 else 0
  | Le, _, Slot j -> let f = eval la in fun env -> if f env <= env.fl.(j) then 1 else 0
  | Le, _, _ -> let f = eval la and g = eval lb in fun env -> if f env <= g env then 1 else 0
  | Gt, Slot i, Slot j -> fun env -> if env.fl.(i) > env.fl.(j) then 1 else 0
  | Gt, Slot i, _ -> let g = eval lb in fun env -> if env.fl.(i) > g env then 1 else 0
  | Gt, _, Slot j -> let f = eval la in fun env -> if f env > env.fl.(j) then 1 else 0
  | Gt, _, _ -> let f = eval la and g = eval lb in fun env -> if f env > g env then 1 else 0
  | Ge, Slot i, Slot j -> fun env -> if env.fl.(i) >= env.fl.(j) then 1 else 0
  | Ge, Slot i, _ -> let g = eval lb in fun env -> if env.fl.(i) >= g env then 1 else 0
  | Ge, _, Slot j -> let f = eval la in fun env -> if f env >= env.fl.(j) then 1 else 0
  | Ge, _, _ -> let f = eval la and g = eval lb in fun env -> if f env >= g env then 1 else 0
  | _ -> assert false

let compile ?builtins ?(config = Config.double) ?(mode = Config.Source)
    ?counter ?(meter = counter <> None) ?(optimize = true) ~prog ~func () =
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  let f = func_exn prog func in
  let f = if Inline.has_user_calls prog f then Inline.inline_func prog f else f in
  let f =
    if optimize then
      (* Configuration-demoted variables round on store: they must stay
         opaque to value forwarding (see Optimize). *)
      Optimize.optimize_func
        ~opaque:(fun v ->
          Config.has_override config v
          || not (Fp.equal_format (Config.default_format config) Fp.F64))
        f
    else f
  in
  let nfl = ref 0 and nit = ref 0 and nfa = ref 0 and nia = ref 0 in
  let fresh_f () = let i = !nfl in incr nfl; i in
  let fresh_i () = let i = !nit in incr nit; i in
  let fresh_fa () = let i = !nfa in incr nfa; i in
  let fresh_ia () = let i = !nia in incr nia; i in
  let sc = { frames = [ [] ] } in

  let effective s name = Interp.effective_format config s name in

  (* Metering charges into the *run's* counter (a slot of [env]), not a
     counter captured at compile time: a metered compilation is a pure
     value reusable with any counter, which is what lets the compile
     cache share instances across runs and domains. *)
  let charge_op fmt cls : (env -> unit) option =
    if meter then Some (fun env -> Cost.Counter.charge_op env.counter fmt cls)
    else None
  in
  let charge_cast () : (env -> unit) option =
    if meter then Some (fun env -> Cost.Counter.charge_cast env.counter)
    else None
  in
  let with_charge charge (k : env -> float) =
    match charge with
    | None -> k
    | Some ch -> fun env -> (ch env; k env)
  in

  (* Static format of the result of an operation on [fa], [fb]. *)
  let wider a b = if Fp.bits a >= Fp.bits b then a else b in

  (* cf : expr -> (env -> float) * static format
     ci : expr -> env -> int *)
  let rec cf e : (env -> float) * Fp.format =
    match e with
    | Fconst x -> ((fun _ -> x), Fp.F64)
    | Iconst _ -> fail "integer expression %s where a float is required"
                    (Pp.expr_to_string e)
    | Var v -> (
        match scope_find sc v with
        | Bf (slot, fmt) -> ((fun env -> env.fl.(slot)), fmt)
        | Bi _ -> fail "int variable %S used as float" v
        | Bfa _ | Bia _ -> fail "array %S used as a scalar" v)
    | Idx (a, ie) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, fmt) -> ((fun env -> env.fa.(slot).(gi env)), fmt)
        | Bia _ -> fail "int array %S used as float" a
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Unop (Neg, e) ->
        let g, fmt = cf e in
        let fmt' = match mode with Config.Source -> fmt | Config.Extended -> Fp.F64 in
        (with_charge (charge_op fmt' Cost.Basic) (fun env -> -.(g env)), fmt)
    | Unop (Not, _) -> fail "logical not yields an int"
    | Binop ((Add | Sub | Mul | Div) as op, a, b) -> (
        (* An int operand fails in [cf] itself, so no kind check here. *)
        let la, fa = leaf a in
        let lb, fb = leaf b in
        let fmt = wider fa fb in
        let cls = match op with Div -> Cost.Division | _ -> Cost.Basic in
        let raw = arith op la lb in
        let cast_charge =
          if Fp.equal_format fa fb then None else charge_cast ()
        in
        let raw =
          match cast_charge with
          | None -> raw
          | Some ch -> fun env -> (ch env; raw env)
        in
        match mode with
        | Config.Source ->
            let k = with_charge (charge_op fmt cls) raw in
            if Fp.equal_format fmt Fp.F64 then (k, fmt)
            else
              let rnd = Fp.round fmt in
              ((fun env -> rnd (k env)), fmt)
        | Config.Extended -> (with_charge (charge_op Fp.F64 cls) raw, Fp.F64))
    | Binop _ -> fail "integer expression used as float: %s" (Pp.expr_to_string e)
    | Call (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, impl) ->
            if sg.Builtins.ret <> Builtins.Kflt then
              fail "intrinsic %S yields an int, used as float" name;
            compile_call name sg impl args)

  (* Float operand of an operator or a store: a float slot or a literal
     is read in place by the consumer's closure, anything else through
     its own compiled closure. *)
  and leaf e : leaf * Fp.format =
    match e with
    | Fconst x -> (Const x, Fp.F64)
    | Var v -> (
        match scope_find sc v with
        | Bf (slot, fmt) -> (Slot slot, fmt)
        | _ -> let g, fmt = cf e in (Other g, fmt))
    | _ -> let g, fmt = cf e in (Other g, fmt)

  and compile_call name sg impl args : (env -> float) * Fp.format =
    if List.compare_lengths sg.Builtins.args args <> 0 then
      fail "intrinsic %S expects %d arguments" name (List.length sg.Builtins.args);
    let compiled =
      List.map2
        (fun k arg ->
          match k with
          | Builtins.Kflt ->
              let g, fmt = cf arg in
              `F (g, fmt)
          | Builtins.Kint -> `I (ci arg))
        sg.Builtins.args args
    in
    let widest =
      List.fold_left
        (fun acc c -> match c with `F (_, fmt) -> wider acc fmt | `I _ -> acc)
        Fp.F16 compiled
    in
    let has_float = List.exists (function `F _ -> true | `I _ -> false) compiled in
    let widest = if has_float then widest else Fp.F64 in
    let charge =
      if sg.Builtins.approx then
        (if meter then
           Some (fun env -> Cost.Counter.charge_approx env.counter sg.Builtins.cls)
         else None)
      else
        charge_op
          (match mode with Config.Source -> widest | Config.Extended -> Fp.F64)
          sg.Builtins.cls
    in
    let base : env -> float =
      match (compiled, Builtins.fast1 builtins name, Builtins.fast2 builtins name)
      with
      | [ `F (g, _) ], Some f, _ -> fun env -> f (g env)
      | [ `F (ga, _); `F (gb, _) ], _, Some f -> fun env -> f (ga env) (gb env)
      | _, _, _ ->
          let getters =
            List.map
              (function
                | `F (g, _) -> fun env -> Builtins.F (g env)
                | `I g -> fun env -> Builtins.I (g env))
              compiled
          in
          let getters = Array.of_list getters in
          fun env ->
            Builtins.as_float (impl (Array.map (fun g -> g env) getters))
    in
    let k = with_charge charge base in
    match mode with
    | Config.Source ->
        if Fp.equal_format widest Fp.F64 then (k, Fp.F64)
        else
          let rnd = Fp.round widest in
          ((fun env -> rnd (k env)), widest)
    | Config.Extended -> (k, Fp.F64)

  and ci e : env -> int =
    match e with
    | Iconst n -> fun _ -> n
    | Fconst _ -> fail "float constant used as int"
    | Var v -> (
        match scope_find sc v with
        | Bi slot -> fun env -> env.it.(slot)
        | Bf _ -> fail "float variable %S used as int" v
        | Bfa _ | Bia _ -> fail "array %S used as a scalar" v)
    | Idx (a, ie) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bia slot -> fun env -> env.ia.(slot).(gi env)
        | Bfa _ -> fail "float array %S used as int" a
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Unop (Neg, e) ->
        let g = ci e in
        fun env -> -g env
    | Unop (Not, e) ->
        let g = ci e in
        fun env -> if g env = 0 then 1 else 0
    | Binop ((Add | Sub | Mul | Div | Mod) as op, a, b) -> (
        let ga = ci a and gb = ci b in
        match op with
        | Add -> fun env -> ga env + gb env
        | Sub -> fun env -> ga env - gb env
        | Mul -> fun env -> ga env * gb env
        | Div -> fun env -> ga env / gb env
        | Mod -> fun env -> ga env mod gb env
        | _ -> assert false)
    | Binop ((And | Or) as op, a, b) -> (
        let ga = ci a and gb = ci b in
        match op with
        | And -> fun env -> if ga env <> 0 && gb env <> 0 then 1 else 0
        | Or -> fun env -> if ga env <> 0 || gb env <> 0 then 1 else 0
        | _ -> assert false)
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) -> (
        match Typecheck.expr_kind ~builtins prog (lookup_ty sc) a with
        | exception Typecheck.Error m -> fail "%s" m
        | Typecheck.Escalar Builtins.Kint -> (
            let ga = ci a and gb = ci b in
            match op with
            | Eq -> fun env -> if ga env = gb env then 1 else 0
            | Ne -> fun env -> if ga env <> gb env then 1 else 0
            | Lt -> fun env -> if ga env < gb env then 1 else 0
            | Le -> fun env -> if ga env <= gb env then 1 else 0
            | Gt -> fun env -> if ga env > gb env then 1 else 0
            | Ge -> fun env -> if ga env >= gb env then 1 else 0
            | _ -> assert false)
        | _ -> compare_floats op (fst (leaf a)) (fst (leaf b)))
    | Call (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, impl) ->
            if sg.Builtins.ret <> Builtins.Kint then
              fail "intrinsic %S yields a float, used as int" name;
            let getters =
              List.map2
                (fun k arg ->
                  match k with
                  | Builtins.Kflt ->
                      let g, _ = cf arg in
                      fun env -> Builtins.F (g env)
                  | Builtins.Kint ->
                      let g = ci arg in
                      fun env -> Builtins.I (g env))
                sg.Builtins.args args
              |> Array.of_list
            in
            fun env ->
              Builtins.as_int (impl (Array.map (fun g -> g env) getters)))

  and lookup_ty sc name =
    (* Typing view of the compile-time scope, for expr_kind queries. *)
    let rec go = function
      | [] -> None
      | frame :: rest -> (
          match List.assoc_opt name frame with
          | Some (Bf (_, fmt)) -> Some (Tscalar (Sflt fmt))
          | Some (Bi _) -> Some (Tscalar Sint)
          | Some (Bfa (_, fmt)) -> Some (Tarr (Sflt fmt))
          | Some (Bia _) -> Some (Tarr Sint)
          | None -> go rest)
    in
    go sc.frames
  in

  (* Store into a float slot with static rounding. A binary64 slot
     copied into a binary64 location needs neither cast nor rounding,
     and is read in place. *)
  let plain_copy fmt gfmt =
    Fp.equal_format fmt Fp.F64 && Fp.equal_format gfmt Fp.F64
  in
  let stored fmt l gfmt : env -> float =
    let g = eval l in
    match (Fp.equal_format gfmt fmt, charge_cast ()) with
    | false, Some ch -> fun env -> (ch env; g env)
    | _, _ -> g
  in
  let store_float slot fmt e : env -> unit =
    match leaf e with
    | Slot src, gfmt when plain_copy fmt gfmt ->
        fun env -> env.fl.(slot) <- env.fl.(src)
    | l, gfmt ->
        let g = stored fmt l gfmt in
        if Fp.equal_format fmt Fp.F64 then fun env -> env.fl.(slot) <- g env
        else
          let rnd = Fp.round fmt in
          fun env -> env.fl.(slot) <- rnd (g env)
  in
  let store_farr slot fmt gi e : env -> unit =
    match leaf e with
    | Slot src, gfmt when plain_copy fmt gfmt ->
        fun env -> env.fa.(slot).(gi env) <- env.fl.(src)
    | l, gfmt ->
        let g = stored fmt l gfmt in
        if Fp.equal_format fmt Fp.F64 then
          fun env -> env.fa.(slot).(gi env) <- g env
        else
          let rnd = Fp.round fmt in
          fun env -> env.fa.(slot).(gi env) <- rnd (g env)
  in

  let rec cstmt s : env -> unit =
    match s with
    | Decl { name; dty = Dscalar Sint; init } -> (
        let slot = fresh_i () in
        scope_declare sc name (Bi slot);
        match init with
        | None -> fun env -> env.it.(slot) <- 0
        | Some e ->
            let g = ci e in
            fun env -> env.it.(slot) <- g env)
    | Decl { name; dty = Dscalar (Sflt _ as s); init } -> (
        let fmt = effective s name in
        let slot = fresh_f () in
        scope_declare sc name (Bf (slot, fmt));
        match init with
        | None -> fun env -> env.fl.(slot) <- 0.
        | Some e -> store_float slot fmt e)
    | Decl { name; dty = Darr (Sint, size); init = _ } ->
        let gn = ci size in
        let slot = fresh_ia () in
        scope_declare sc name (Bia slot);
        fun env -> env.ia.(slot) <- Array.make (gn env) 0
    | Decl { name; dty = Darr ((Sflt _ as s), size); init = _ } ->
        let fmt = effective s name in
        let gn = ci size in
        let slot = fresh_fa () in
        scope_declare sc name (Bfa (slot, fmt));
        fun env -> env.fa.(slot) <- Array.make (gn env) 0.
    | Assign (Lvar v, e) -> (
        match scope_find sc v with
        | Bf (slot, fmt) -> store_float slot fmt e
        | Bi slot ->
            let g = ci e in
            fun env -> env.it.(slot) <- g env
        | Bfa _ | Bia _ -> fail "cannot assign to array %S as a whole" v)
    | Assign (Lidx (a, ie), e) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, fmt) -> store_farr slot fmt gi e
        | Bia slot ->
            let g = ci e in
            fun env -> env.ia.(slot).(gi env) <- g env
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | If (c, t, e) ->
        let gc = ci c in
        let gt = cblock t and ge = cblock e in
        fun env -> if gc env <> 0 then gt env else ge env
    | For { var; lo; hi; down; body } ->
        let glo = ci lo and ghi = ci hi in
        scope_push sc;
        let slot = fresh_i () in
        scope_declare sc var (Bi slot);
        let gbody = cblock body in
        scope_pop sc;
        if down then fun env ->
          let lo = glo env and hi = ghi env in
          for i = hi - 1 downto lo do
            env.it.(slot) <- i;
            gbody env
          done
        else fun env ->
          let lo = glo env and hi = ghi env in
          for i = lo to hi - 1 do
            env.it.(slot) <- i;
            gbody env
          done
    | While (c, body) ->
        let gc = ci c in
        let gbody = cblock body in
        fun env ->
          while gc env <> 0 do
            gbody env
          done
    | Return None -> fun _ -> raise (Creturn_f Float.nan)
    | Return (Some e) -> (
        match Typecheck.expr_kind ~builtins prog (lookup_ty sc) e with
        | exception Typecheck.Error m -> fail "%s" m
        | Typecheck.Escalar Builtins.Kint ->
            let g = ci e in
            fun env -> raise (Creturn_i (g env))
        | _ ->
            let g, _ = cf e in
            fun env -> raise (Creturn_f (g env)))
    | Call_stmt (name, args) -> (
        match Builtins.find builtins name with
        | None -> fail "user call %S survived inlining" name
        | Some (sg, _) -> (
            match sg.Builtins.ret with
            | Builtins.Kflt ->
                let g, _ = cf (Call (name, args)) in
                fun env -> ignore (g env)
            | Builtins.Kint ->
                let g = ci (Call (name, args)) in
                fun env -> ignore (g env)))
    | Push (Lvar v) -> (
        match scope_find sc v with
        | Bf (slot, _) -> fun env -> Growable.Float.push env.fstack env.fl.(slot)
        | Bi slot ->
            fun env ->
              Growable.push env.istack env.it.(slot);
              if Growable.length env.istack > env.ipeak then
                env.ipeak <- Growable.length env.istack
        | Bfa _ | Bia _ -> fail "cannot push whole array %S" v)
    | Push (Lidx (a, ie)) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, _) ->
            fun env -> Growable.Float.push env.fstack env.fa.(slot).(gi env)
        | Bia slot ->
            fun env ->
              Growable.push env.istack env.ia.(slot).(gi env);
              if Growable.length env.istack > env.ipeak then
                env.ipeak <- Growable.length env.istack
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)
    | Pop (Lvar v) -> (
        match scope_find sc v with
        | Bf (slot, _) -> fun env -> env.fl.(slot) <- Growable.Float.pop env.fstack
        | Bi slot -> fun env -> env.it.(slot) <- Growable.pop env.istack
        | Bfa _ | Bia _ -> fail "cannot pop whole array %S" v)
    | Pop (Lidx (a, ie)) -> (
        let gi = ci ie in
        match scope_find sc a with
        | Bfa (slot, _) ->
            fun env -> env.fa.(slot).(gi env) <- Growable.Float.pop env.fstack
        | Bia slot ->
            fun env -> env.ia.(slot).(gi env) <- Growable.pop env.istack
        | Bf _ | Bi _ -> fail "scalar %S indexed" a)

  and cblock stmts : env -> unit =
    scope_push sc;
    let compiled = Array.of_list (List.map cstmt stmts) in
    scope_pop sc;
    fun env -> Array.iter (fun g -> g env) compiled
  in

  (* Parameters. *)
  let param_bindings =
    List.map
      (fun p ->
        let b =
          match p.pty with
          | Tscalar Sint -> Bi (fresh_i ())
          | Tscalar (Sflt _ as s) -> Bf (fresh_f (), effective s p.pname)
          | Tarr (Sflt _ as s) -> Bfa (fresh_fa (), effective s p.pname)
          | Tarr Sint -> Bia (fresh_ia ())
        in
        scope_declare sc p.pname b;
        (p, b))
      f.params
  in
  let out_scalars =
    List.filter_map
      (fun (p, b) ->
        match (p.pmode, b) with
        | Out, (Bf _ | Bi _) -> Some (p.pname, b)
        | _, _ -> None)
      param_bindings
  in
  let compiled = Array.of_list (List.map cstmt f.body) in
  let run_body env = Array.iter (fun g -> g env) compiled in
  {
    cfunc = f;
    run_body;
    nfl = !nfl;
    nit = !nit;
    nfa = !nfa;
    nia = !nia;
    out_scalars;
    param_bindings;
    config;
    default_counter = counter;
  }

let run ?counter t (args : Interp.arg list) : Interp.result =
  if List.length args <> List.length t.param_bindings then
    fail "function %S expects %d arguments, got %d" t.cfunc.fname
      (List.length t.param_bindings)
      (List.length args);
  let env =
    {
      fl = Array.make (max t.nfl 1) 0.;
      it = Array.make (max t.nit 1) 0;
      fa = Array.make (max t.nfa 1) [||];
      ia = Array.make (max t.nia 1) [||];
      fstack = Growable.Float.create ();
      istack = Growable.create ~dummy:0 ();
      ipeak = 0;
      counter =
        (match (counter, t.default_counter) with
        | Some c, _ -> c
        | None, Some c -> c
        | None, None ->
            (* metered compilation run without a counter: charge into a
               fresh private accumulator (kept per-run so concurrent
               domains never share one) *)
            Cost.Counter.create Cost.default);
    }
  in
  List.iter2
    (fun (p, b) arg ->
      match (b, arg) with
      | Bf (slot, fmt), Interp.Aflt x -> env.fl.(slot) <- Fp.round fmt x
      | Bi slot, Interp.Aint n -> env.it.(slot) <- n
      | Bfa (slot, fmt), Interp.Afarr a ->
          env.fa.(slot) <-
            (if Fp.equal_format fmt Fp.F64 then a
             else Array.map (Fp.round fmt) a)
      | Bia slot, Interp.Aiarr a -> env.ia.(slot) <- a
      | _, _ -> fail "argument kind mismatch for parameter %S" p.pname)
    t.param_bindings args;
  let ret =
    try
      t.run_body env;
      None
    with
    | Creturn_f x when Float.is_nan x && t.cfunc.ret = None -> None
    | Creturn_f x -> Some (Builtins.F x)
    | Creturn_i n -> Some (Builtins.I n)
  in
  let outs =
    List.map
      (fun (name, b) ->
        match b with
        | Bf (slot, _) -> (name, Builtins.F env.fl.(slot))
        | Bi slot -> (name, Builtins.I env.it.(slot))
        | Bfa _ | Bia _ -> assert false)
      t.out_scalars
  in
  {
    Interp.ret;
    outs;
    stack_peak_bytes =
      (Growable.Float.peak_length env.fstack * 8) + (env.ipeak * 8);
  }

let run_float ?counter t args =
  match (run ?counter t args).Interp.ret with
  | Some (Builtins.F x) -> x
  | _ -> fail "function %S did not return a float" t.cfunc.fname
