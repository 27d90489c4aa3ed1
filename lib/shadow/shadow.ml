(* A closure compiler for lockstep shadow execution. The low lane
   reproduces [Cheffp_ir.Interp]'s value semantics statement for
   statement (same rounding points, same widening rules, same argument
   preparation, same run-time errors), and every float additionally
   carries a double-double shadow. Any change to interp.ml's value
   semantics must be mirrored here — the test suite pins the lanes
   together with bit-identity checks over the fuzzer.

   Each run compiles its function once: variables resolve to slots of a
   per-call frame, the low lane of every float lives in a [float array]
   with its shadow in a [Dd.t array] beside it, and intrinsics bind
   their low and shadow implementations up front. Kinds are static, so
   a kind error the interpreter would raise mid-run compiles to a
   closure that evaluates the same operands and raises the same message
   at the same point. User functions keep their own frames (compiled
   once per run for each shape of by-reference arguments) rather than
   being inlined, so divergence is recorded under the names the source
   uses. *)

open Cheffp_ir.Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Builtins = Cheffp_ir.Builtins
module Interp = Cheffp_ir.Interp
module Pp = Cheffp_ir.Pp
module Growable = Cheffp_util.Growable
module Trace = Cheffp_obs.Trace

let fail fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

type measurement = {
  name : string;
  low : float;
  shadow : Dd.t;
  abs_error : float;
  rel_error : float;
}

type result = {
  ret : measurement option;
  ret_int : int option;
  outs : measurement list;
  divergence : (string * float) list;
  branch_hash : int;
}

type dd_impl = Dd.t array -> Dd.t

(* ------------------------------------------------------------------ *)
(* Shadow implementations of the default builtins.  Transcendentals
   use first-order derivative correction f(hi) + f'(hi)·lo: the result
   is accurate to ~1 ulp of binary64 — far below any low-lane rounding
   error we measure against, but not full double-double accuracy
   (DESIGN.md §10 "known gaps"). *)

let lift1 f f' (x : Dd.t) =
  if Float.is_finite x.Dd.hi && Float.is_finite x.Dd.lo then
    Dd.add_float (Dd.of_float (f x.Dd.hi)) (f' x.Dd.hi *. x.Dd.lo)
  else Dd.of_float (f (Dd.to_float x))

let dd_pow (a : Dd.t) (b : Dd.t) =
  let p = a.Dd.hi ** b.Dd.hi in
  if
    a.Dd.hi > 0.0 && Float.is_finite p
    && Float.is_finite a.Dd.lo
    && Float.is_finite b.Dd.lo
  then
    (* d(a^b)/da = b·a^(b-1),  d(a^b)/db = a^b·ln a *)
    let da = b.Dd.hi *. (a.Dd.hi ** (b.Dd.hi -. 1.0)) *. a.Dd.lo in
    let db = p *. Float.log a.Dd.hi *. b.Dd.lo in
    Dd.add_float (Dd.of_float p) (da +. db)
  else Dd.of_float p

let dd_unary : (string * (Dd.t -> Dd.t)) list =
  [
    ("sin", lift1 sin cos);
    ("cos", lift1 cos (fun x -> -.sin x));
    ("tan", lift1 tan (fun x -> let t = tan x in 1.0 +. (t *. t)));
    ("exp", lift1 exp exp);
    ("log", lift1 log (fun x -> 1.0 /. x));
    ("log2", lift1 (fun x -> log x /. log 2.) (fun x -> 1.0 /. (x *. log 2.)));
    ("log10", lift1 log10 (fun x -> 1.0 /. (x *. log 10.)));
    ("tanh", lift1 tanh (fun x -> let t = tanh x in 1.0 -. (t *. t)));
    ("atan", lift1 atan (fun x -> 1.0 /. (1.0 +. (x *. x))));
    ("sqrt", Dd.sqrt);
    ("fabs", Dd.abs);
    ("floor", Dd.floor);
    ("ceil", Dd.ceil);
    ("sign", fun a -> Dd.of_float (Dd.sign a));
    (* The reference is real-valued execution: explicit narrowing casts
       are rounding operations, so the shadow lane passes through. *)
    ("castf32", Fun.id);
    ("castf16", Fun.id);
    ("itof", Fun.id);
  ]

let default_dd_builtins : (string * dd_impl) list =
  List.map (fun (n, f) -> (n, fun (a : Dd.t array) -> f a.(0))) dd_unary
  @ [
      ("pow", fun a -> dd_pow a.(0) a.(1));
      ("fma", fun a -> Dd.add (Dd.mul a.(0) a.(1)) a.(2));
      ("fmin", fun a -> if Dd.compare a.(0) a.(1) <= 0 then a.(0) else a.(1));
      ("fmax", fun a -> if Dd.compare a.(0) a.(1) >= 0 then a.(0) else a.(1));
      ("select", fun a -> a.(0) (* the pick needs the condition: see [call] *));
    ]

(* An intrinsic's shadow implementation, bound once per run. *)
type dd_fn = Dunary of (Dd.t -> Dd.t) | Darray of dd_impl | Dmissing

(* [dd_builtins] extends and overrides the defaults, a later entry
   overriding an earlier one. *)
let resolve_dd dd_builtins name =
  match List.assoc_opt name (List.rev dd_builtins) with
  | Some f -> Darray f
  | None -> (
      match List.assoc_opt name dd_unary with
      | Some f -> Dunary f
      | None -> (
          match List.assoc_opt name default_dd_builtins with
          | Some f -> Darray f
          | None -> Dmissing))

(* ------------------------------------------------------------------ *)
(* Run-time representation. *)

type farr = { a : float array; afmt : Fp.format; da : Dd.t array }

(* One activation of a function. [fl] holds the low lane of the float
   scalars, the expression temporaries and the literals (which the
   frame template pre-fills); [dd] holds their shadows. A by-reference
   scalar parameter is the cell [(rf.(k), ri.(k))] of the frame that
   owns it. *)
type frame = {
  fl : float array;
  dd : Dd.t array;
  it : int array;
  fa : farr array;
  ia : int array array;
  rf : frame array;
  ri : int array;
}

let no_farr = { a = [||]; afmt = Fp.F64; da = [||] }

let no_frame =
  { fl = [||]; dd = [||]; it = [||]; fa = [||]; ia = [||]; rf = [||]; ri = [||] }

type state = {
  fstack : Growable.Float.t;
  dstack : Dd.t Growable.t;
  istack : int Growable.t;
  mutable div : float array;
      (* worst gap per interned variable name; -1 = never stored *)
  mutable branch_hash : int;
  mutable degraded : bool;
  mutable fuel : int; (* negative = unlimited *)
  (* the value of the [return] being unwound by [Ret]:
     0 = none, 1 = int, 2 = float *)
  mutable ret_tag : int;
  mutable ret_int : int;
  mutable ret_low : float;
  mutable ret_dd : Dd.t;
}

exception Ret

let hash_decision st n =
  (* order-sensitive mixing; collisions only weaken a test heuristic *)
  st.branch_hash <- (st.branch_hash * 31) + n land max_int

let hash_float_decision st x = hash_decision st (Hashtbl.hash x)
let bool_of b = if b then 1 else 0

let record st k low (d : Dd.t) =
  let gap = Float.abs (low -. (d.Dd.hi +. d.Dd.lo)) in
  let gap = if Float.is_nan gap then 0.0 else gap in
  if gap > st.div.(k) then st.div.(k) <- gap

let degrade st name =
  if not st.degraded then begin
    st.degraded <- true;
    if Trace.enabled () then
      Trace.event ~attrs:[ ("builtin", Trace.Str name) ] "shadow.degraded"
  end

(* ------------------------------------------------------------------ *)
(* Compile-time representation. *)

type binding =
  | Bf of int * Fp.format  (** float scalar slot *)
  | Bi of int
  | Bfa of int * Fp.format  (** float array slot *)
  | Bia of int
  | Rf of int * Fp.format  (** by-reference float scalar, via [rf]/[ri] *)
  | Ri of int

(* Where the low lane of a compiled float expression can be read once
   its closure has run: a literal's or a variable's own slot, or the
   expression's temporary. *)
type place = Lit | Var_slot | Temp

(* [ev] runs the expression, returns its shadow and leaves its low lane
   in [fl.(at)]. *)
type fx = { ev : frame -> Dd.t; at : int; fmt : Fp.format; place : place }

type cexp =
  | F of fx
  | I of (frame -> int)
  | E of (frame -> unit)  (** always raises once its operands ran *)

(* What a callee parameter is bound to by reference, for each
   parameter: [None] for a copied scalar. *)
type shape = Kf of Fp.format | Ki | Kfa of Fp.format | Kia

type cfunc = {
  mutable body : frame -> unit;
  mutable fl0 : float array;  (** frame template: literals pre-filled *)
  mutable dd0 : Dd.t array;
  mutable nit : int;
  mutable nfa : int;
  mutable nia : int;
  mutable nref : int;
}

(* Slots and lexical scope of the function being compiled. *)
type fctx = {
  mutable fl_init : float list;  (** reversed *)
  mutable dd_init : Dd.t list;
  mutable nfl : int;
  mutable cit : int;
  mutable cfa : int;
  mutable cia : int;
  mutable cref : int;
  mutable frames : (string * binding) list list;
}

(* Everything one run compiles against. *)
type env = {
  prog : program;
  builtins : Builtins.t;
  dd_builtins : (string * dd_impl) list;
  config : Config.t;
  mode : Config.rounding_mode;
  st : state;
  metered : bool;  (** a fuel budget is in force *)
  names : (string, int) Hashtbl.t;  (** divergence keys *)
  funcs : (string * shape option list, cfunc * binding list) Hashtbl.t;
}

let new_frame cf =
  {
    fl = Array.copy cf.fl0;
    dd = Array.copy cf.dd0;
    it = Array.make cf.nit 0;
    fa = Array.make cf.nfa no_farr;
    ia = Array.make cf.nia [||];
    rf = Array.make cf.nref no_frame;
    ri = Array.make cf.nref 0;
  }

let fresh_f c x d =
  let k = c.nfl in
  c.nfl <- k + 1;
  c.fl_init <- x :: c.fl_init;
  c.dd_init <- d :: c.dd_init;
  k

let temp c = fresh_f c 0.0 Dd.zero
let fresh_i c = let k = c.cit in c.cit <- k + 1; k
let fresh_fa c = let k = c.cfa in c.cfa <- k + 1; k
let fresh_ia c = let k = c.cia in c.cia <- k + 1; k
let fresh_ref c = let k = c.cref in c.cref <- k + 1; k

let lookup c name =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt name frame with Some b -> Some b | None -> go rest)
  in
  go c.frames

let declare c name b =
  match c.frames with
  | frame :: rest -> c.frames <- ((name, b) :: frame) :: rest
  | [] -> assert false

let push_scope c = c.frames <- [] :: c.frames
let pop_scope c = c.frames <- List.tl c.frames

let intern env name =
  match Hashtbl.find_opt env.names name with
  | Some k -> k
  | None ->
      let k = Hashtbl.length env.names in
      Hashtbl.replace env.names name k;
      k

(* ------------------------------------------------------------------ *)
(* Low-lane rounding, resolved at compile time. *)

type rnd = R64 | R32 | Rfn of (float -> float)

let rnd_of = function
  | Fp.F64 -> R64
  | Fp.F32 -> R32
  | fmt -> Rfn (Fp.round fmt)

(* [Fp.round F32], written where the float stays unboxed. *)
let[@inline] set_rounded (fl : float array) t rnd x =
  match rnd with
  | R64 -> fl.(t) <- x
  | R32 -> fl.(t) <- Int32.float_of_bits (Int32.bits_of_float x)
  | Rfn g -> fl.(t) <- g x

let wider a b = if Fp.bits a >= Fp.bits b then a else b

let effect = function
  | F x -> fun fr -> ignore (x.ev fr)
  | I g -> fun fr -> ignore (g fr)
  | E f -> f

let raise_after runs msg : frame -> unit =
 fun fr ->
  List.iter (fun r -> r fr) runs;
  raise (Interp.Runtime_error msg)

(* [Interp.eval_int] / [eval_float]: the operand's kind error, raised
   after the operand ran. *)
let as_int e = function
  | I g -> g
  | c ->
      let f =
        raise_after [ effect c ]
          (Printf.sprintf "expected an int, got a float in %s"
             (Pp.expr_to_string e))
      in
      fun fr -> f fr; assert false

let as_float c e ce =
  match ce with
  | F x -> x
  | _ ->
      let f =
        raise_after [ effect ce ]
          (Printf.sprintf "expected a float, got an int in %s"
             (Pp.expr_to_string e))
      in
      { ev = (fun fr -> f fr; assert false); at = temp c; fmt = Fp.F64; place = Temp }

let rec has_user_call builtins = function
  | Fconst _ | Iconst _ | Var _ -> false
  | Idx (_, e) | Unop (_, e) -> has_user_call builtins e
  | Binop (_, a, b) -> has_user_call builtins a || has_user_call builtins b
  | Call (name, args) ->
      (not (Builtins.mem builtins name))
      || List.exists (has_user_call builtins) args

(* A variable's low lane is read by its consumer in place; copy it to a
   temporary when an operand evaluated after it may call a user
   function, which can write the variable when it is passed as an out
   parameter (the interpreter allows that in an expression; only
   [Typecheck] rejects it). *)
let settle c env (x : fx) later =
  if x.place = Var_slot && has_user_call env.builtins later then begin
    let s = x.at and t = temp c in
    { x with
      ev = (fun fr -> fr.fl.(t) <- fr.fl.(s); fr.dd.(s));
      at = t;
      place = Temp }
  end
  else x

(* ------------------------------------------------------------------ *)
(* Expressions. *)

let float_arith op rnd (a : fx) (b : fx) t : frame -> Dd.t =
  let ea = a.ev and eb = b.ev and sa = a.at and sb = b.at in
  match op with
  | Add ->
      fun fr ->
        let da = ea fr in
        let db = eb fr in
        set_rounded fr.fl t rnd (fr.fl.(sa) +. fr.fl.(sb));
        Dd.add da db
  | Sub ->
      fun fr ->
        let da = ea fr in
        let db = eb fr in
        set_rounded fr.fl t rnd (fr.fl.(sa) -. fr.fl.(sb));
        Dd.sub da db
  | Mul ->
      fun fr ->
        let da = ea fr in
        let db = eb fr in
        set_rounded fr.fl t rnd (fr.fl.(sa) *. fr.fl.(sb));
        Dd.mul da db
  | Div ->
      fun fr ->
        let da = ea fr in
        let db = eb fr in
        set_rounded fr.fl t rnd (fr.fl.(sa) /. fr.fl.(sb));
        Dd.div da db
  | _ -> assert false

(* Comparisons are decided by the low lane, like every discrete
   choice. *)
let float_compare op (a : fx) (b : fx) : frame -> int =
  let ea = a.ev and eb = b.ev and sa = a.at and sb = b.at in
  let cmp : float -> float -> bool =
    match op with
    | Eq -> ( = )
    | Ne -> ( <> )
    | Lt -> ( < )
    | Le -> ( <= )
    | Gt -> ( > )
    | Ge -> ( >= )
    | _ -> assert false
  in
  fun fr ->
    ignore (ea fr);
    ignore (eb fr);
    bool_of (cmp fr.fl.(sa) fr.fl.(sb))

let int_op op (ga : frame -> int) (gb : frame -> int) : frame -> int =
  let f : int -> int -> int =
    match op with
    | Add -> ( + )
    | Sub -> ( - )
    | Mul -> ( * )
    | Div -> fun a b -> if b = 0 then fail "integer division by zero" else a / b
    | Mod -> fun a b -> if b = 0 then fail "integer modulo by zero" else a mod b
    | Eq -> fun a b -> bool_of (a = b)
    | Ne -> fun a b -> bool_of (a <> b)
    | Lt -> fun a b -> bool_of (a < b)
    | Le -> fun a b -> bool_of (a <= b)
    | Gt -> fun a b -> bool_of (a > b)
    | Ge -> fun a b -> bool_of (a >= b)
    | And -> fun a b -> bool_of (a <> 0 && b <> 0)
    | Or -> fun a b -> bool_of (a <> 0 || b <> 0)
  in
  fun fr ->
    let a = ga fr in
    let b = gb fr in
    f a b

let out_of_bounds i name len =
  fail "index %d out of bounds for %S (length %d)" i name len

let rec expr env c e : cexp =
  match e with
  | Fconst x ->
      let s = fresh_f c x (Dd.of_float x) in
      F { ev = (fun fr -> fr.dd.(s)); at = s; fmt = Fp.F64; place = Lit }
  | Iconst n -> I (fun _ -> n)
  | Var v -> (
      match lookup c v with
      | Some (Bf (s, fmt)) ->
          F { ev = (fun fr -> fr.dd.(s)); at = s; fmt; place = Var_slot }
      | Some (Rf (k, fmt)) ->
          let t = temp c in
          F
            {
              ev =
                (fun fr ->
                  let o = fr.rf.(k) and j = fr.ri.(k) in
                  fr.fl.(t) <- o.fl.(j);
                  o.dd.(j));
              at = t;
              fmt;
              place = Temp;
            }
      | Some (Bi s) -> I (fun fr -> fr.it.(s))
      | Some (Ri k) -> I (fun fr -> fr.rf.(k).it.(fr.ri.(k)))
      | Some (Bfa _ | Bia _) -> E (fun _ -> fail "array %S used as a scalar" v)
      | None -> E (fun _ -> fail "undeclared variable %S" v))
  | Idx (a, ie) -> (
      let gi = as_int ie (expr env c ie) in
      match lookup c a with
      | Some (Bfa (s, fmt)) ->
          let t = temp c in
          F
            {
              ev =
                (fun fr ->
                  let i = gi fr in
                  let r = fr.fa.(s) in
                  if i < 0 || i >= Array.length r.a then
                    out_of_bounds i a (Array.length r.a);
                  fr.fl.(t) <- r.a.(i);
                  r.da.(i));
              at = t;
              fmt;
              place = Temp;
            }
      | Some (Bia s) ->
          I
            (fun fr ->
              let i = gi fr in
              let r = fr.ia.(s) in
              if i < 0 || i >= Array.length r then
                out_of_bounds i a (Array.length r);
              r.(i))
      | Some (Bf _ | Bi _ | Rf _ | Ri _) ->
          E (fun fr -> ignore (gi fr); fail "scalar %S indexed as an array" a)
      | None -> E (fun fr -> ignore (gi fr); fail "undeclared variable %S" a))
  | Unop (Neg, e) -> (
      match expr env c e with
      | F x ->
          let t = temp c and ev = x.ev and s = x.at in
          F
            {
              ev =
                (fun fr ->
                  let d = ev fr in
                  fr.fl.(t) <- -.fr.fl.(s);
                  Dd.neg d);
              at = t;
              fmt = x.fmt;
              place = Temp;
            }
      | I g -> I (fun fr -> -g fr)
      | E _ as err -> err)
  | Unop (Not, e) ->
      let g = as_int e (expr env c e) in
      I (fun fr -> bool_of (g fr = 0))
  | Binop (op, ea, eb) -> (
      let a = expr env c ea in
      let b = expr env c eb in
      match (op, a, b) with
      | (Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or), I ga, I gb ->
          I (int_op op ga gb)
      | (Add | Sub | Mul | Div), F xa, F xb ->
          let xa = settle c env xa eb in
          let fmt = wider xa.fmt xb.fmt in
          let rnd, fmt =
            match env.mode with
            | Config.Source -> (rnd_of fmt, fmt)
            | Config.Extended -> (R64, Fp.F64)
          in
          let t = temp c in
          F { ev = float_arith op rnd xa xb t; at = t; fmt; place = Temp }
      | (Eq | Ne | Lt | Le | Gt | Ge), F xa, F xb ->
          I (float_compare op (settle c env xa eb) xb)
      | _ ->
          E
            (raise_after [ effect a; effect b ]
               (Printf.sprintf "kind mismatch in %s" (Pp.expr_to_string e))))
  | Call (name, args) -> (
      match Builtins.find env.builtins name with
      | Some entry -> intrinsic env c name entry args
      | None -> (
          match user_call env c name args with
          | Error err -> E err
          | Ok call -> (
              let no_value () = fail "void function %S used in an expression" name in
              let wrong what = fail "function %S returned %s" name what in
              match (func_exn env.prog name).ret with
              | Some (Sflt _) ->
                  let st = env.st and t = temp c in
                  F
                    {
                      ev =
                        (fun fr ->
                          if not (call fr) then no_value ();
                          match st.ret_tag with
                          | 2 ->
                              fr.fl.(t) <- st.ret_low;
                              st.ret_dd
                          | 0 -> no_value ()
                          | _ -> wrong "an int, declared float");
                      at = t;
                      fmt = Fp.F64;
                      place = Temp;
                    }
              | Some Sint ->
                  let st = env.st in
                  I
                    (fun fr ->
                      if not (call fr) then no_value ();
                      match st.ret_tag with
                      | 1 -> st.ret_int
                      | 0 -> no_value ()
                      | _ -> wrong "a float, declared int")
              | None ->
                  let st = env.st in
                  E
                    (fun fr ->
                      if call fr && st.ret_tag <> 0 then
                        wrong "a value, declared void";
                      no_value ()))))

(* An intrinsic call: low lane through the registry (its unboxed
   [fast1] entry point when there is one), shadow lane through
   the implementation bound for [name], and the discrete results
   fingerprinted in the same order as the interpreter's. *)
and intrinsic env c name (sg, impl) args : cexp =
  let st = env.st in
  let cargs = List.map (expr env c) args in
  if List.exists (function E _ -> true | _ -> false) cargs then
    let runs = List.map effect cargs in
    E (fun fr -> List.iter (fun r -> r fr) runs; assert false)
  else begin
    let fmts = List.filter_map (function F x -> Some x.fmt | _ -> None) cargs in
    let rnd, fmt =
      match env.mode with
      | Config.Source ->
          let widest =
            if fmts = [] then Fp.F64 else List.fold_left wider Fp.F16 fmts
          in
          (rnd_of widest, widest)
      | Config.Extended -> (R64, Fp.F64)
    in
    let ddf = resolve_dd env.dd_builtins name in
    let hash_value = List.mem name [ "sign"; "floor"; "ceil" ] in
    let hash_choice = List.mem name [ "fmin"; "fmax" ] in
    match (sg.Builtins.ret, cargs, Builtins.fast1 env.builtins name) with
    | Builtins.Kflt, [ F x ], Some f ->
        let dd1 =
          match ddf with
          | Dunary g -> g
          | Darray g -> fun d -> g [| d |]
          | _ ->
              fun d ->
                degrade st name;
                Dd.of_float (f (Dd.to_float d))
        in
        let ev = x.ev and s = x.at and t = temp c in
        F
          {
            ev =
              (fun fr ->
                let d = ev fr in
                let v = f fr.fl.(s) in
                let d = dd1 d in
                if hash_value then hash_float_decision st v;
                set_rounded fr.fl t rnd v;
                d);
            at = t;
            fmt;
            place = Temp;
          }
    | ret, _, _ -> (
        (* The registry's boxed entry point, with the interpreter's
           argument array. *)
        let cargs = Array.of_list cargs in
        let n = Array.length cargs in
        let eval fr =
          let vs = Array.make n (Builtins.I 0) and ds = Array.make n Dd.zero in
          for k = 0 to n - 1 do
            match cargs.(k) with
            | F x ->
                let d = x.ev fr in
                vs.(k) <- Builtins.F fr.fl.(x.at);
                ds.(k) <- d
            | I g ->
                let m = g fr in
                vs.(k) <- Builtins.I m;
                ds.(k) <- Dd.of_int m
            | E _ -> assert false
          done;
          (vs, ds)
        in
        match ret with
        | Builtins.Kint ->
            I
              (fun fr ->
                let vs, _ = eval fr in
                match impl vs with
                | Builtins.I m ->
                    (* ftoi and friends: the discrete result comes from
                       the low lane and is a decision worth
                       fingerprinting. *)
                    hash_decision st m;
                    m
                | Builtins.F _ -> fail "intrinsic %S returned a float" name)
        | Builtins.Kflt ->
            let shadow (vs : Builtins.value array) (ds : Dd.t array) =
              if name = "select" then begin
                if n <> 3 then fail "select expects 3 arguments";
                let cond = match vs.(0) with Builtins.I m -> m | Builtins.F _ -> fail "select: int" in
                hash_decision st (bool_of (cond <> 0));
                if cond <> 0 then ds.(1) else ds.(2)
              end
              else
                match ddf with
                | Darray g -> g ds
                | Dunary g -> g ds.(0)
                | Dmissing -> (
                    (* Unknown (user-registered / approximate) builtin:
                       degrade to binary64 — re-apply the low
                       implementation to the shadow arguments rounded
                       to doubles. *)
                    degrade st name;
                    let vs' =
                      Array.mapi
                        (fun k v ->
                          match v with
                          | Builtins.I _ -> v
                          | Builtins.F _ -> Builtins.F (Dd.to_float ds.(k)))
                        vs
                    in
                    match impl vs' with
                    | Builtins.F y -> Dd.of_float y
                    | Builtins.I _ -> assert false)
            in
            let t = temp c in
            F
              {
                ev =
                  (fun fr ->
                    let vs, ds = eval fr in
                    match impl vs with
                    | Builtins.I _ -> fail "intrinsic %S returned an int" name
                    | Builtins.F v ->
                        let d = shadow vs ds in
                        if hash_value then hash_float_decision st v;
                        (if hash_choice then
                           match vs with
                           | [| Builtins.F a; Builtins.F _ |] ->
                               hash_decision st (bool_of (v = a))
                           | _ -> ());
                        set_rounded fr.fl t rnd v;
                        d);
                at = t;
                fmt;
                place = Temp;
              })
  end

(* A user-function call in the caller's context [c]: [Ok run] where
   [run fr] performs the call from frame [fr] and tells whether the
   callee executed a [return] (its value is then in the state's return
   registers), or [Error raise] where the call fails before its body
   runs. In scalars are copied into the callee's frame, out scalars and
   arrays share the caller's cell or array. *)
and user_call env c name args : ((frame -> bool), (frame -> unit)) Stdlib.result =
  match find_func env.prog name with
  | None -> Error (fun _ -> ignore (func_exn env.prog name))
  | Some f when List.compare_lengths f.params args <> 0 ->
      Error
        (fun _ ->
          fail "function %S expects %d arguments, got %d" f.fname
            (List.length f.params) (List.length args))
  | Some f -> (
      let shape_of = function
        | Bf (_, fmt) | Rf (_, fmt) -> Kf fmt
        | Bi _ | Ri _ -> Ki
        | Bfa (_, fmt) -> Kfa fmt
        | Bia _ -> Kia
      in
      (* each parameter: its shape, the evaluation of its argument for
         effect, and how it binds, or the error it raises *)
      let binds =
        List.map2
          (fun p arg ->
            let shared v =
              match lookup c v with
              | Some b -> `Share b
              | None -> `Fail (fun _ -> fail "undeclared variable %S" v)
            in
            match (p.pmode, p.pty, arg) with
            | Out, Tscalar _, Var v -> shared v
            | Out, Tscalar _, _ ->
                `Fail (fun _ -> fail "out argument for %S must be a variable" f.fname)
            | In, Tscalar Sint, _ -> `Int (as_int arg (expr env c arg))
            | In, Tscalar (Sflt _), _ -> `Float (as_float c arg (expr env c arg))
            | _, Tarr _, Var v -> shared v
            | _, Tarr _, _ ->
                `Fail (fun _ -> fail "array argument for %S must be a name" f.fname))
          f.params args
      in
      let rec split_at_failure before = function
        | [] -> None
        | `Fail err :: _ -> Some (List.rev before, err)
        | b :: rest -> split_at_failure (b :: before) rest
      in
      match split_at_failure [] binds with
      | Some (before, err) ->
          let runs =
            List.filter_map
              (function
                | `Int g -> Some (fun fr -> ignore (g fr))
                | `Float x -> Some (fun fr -> ignore (x.ev fr))
                | _ -> None)
              before
          in
          Error (fun fr -> List.iter (fun r -> r fr) runs; err fr)
      | None ->
          let key =
            List.map (function `Share b -> Some (shape_of b) | _ -> None) binds
          in
          let cf, params = compiled_func env f key in
          let bind b p : frame -> frame -> unit =
            match (b, p) with
            | `Int g, Bi s -> fun fr callee -> callee.it.(s) <- g fr
            | `Float x, Bf (s, fmt) ->
                let rnd = rnd_of fmt and ev = x.ev and at = x.at in
                fun fr callee ->
                  let d = ev fr in
                  set_rounded callee.fl s rnd fr.fl.(at);
                  callee.dd.(s) <- d
            | `Share (Bf (s, _) | Bi s), (Rf (k, _) | Ri k) ->
                fun fr callee ->
                  callee.rf.(k) <- fr;
                  callee.ri.(k) <- s
            | `Share (Rf (j, _) | Ri j), (Rf (k, _) | Ri k) ->
                fun fr callee ->
                  callee.rf.(k) <- fr.rf.(j);
                  callee.ri.(k) <- fr.ri.(j)
            | `Share (Bfa (s, _)), Bfa (k, _) -> fun fr callee -> callee.fa.(k) <- fr.fa.(s)
            | `Share (Bia s), Bia k -> fun fr callee -> callee.ia.(k) <- fr.ia.(s)
            | _ -> assert false
          in
          let binders = Array.of_list (List.map2 bind binds params) in
          let n = Array.length binders in
          Ok
            (fun fr ->
              let callee = new_frame cf in
              for k = 0 to n - 1 do
                binders.(k) fr callee
              done;
              match cf.body callee with () -> false | exception Ret -> true))

(* ------------------------------------------------------------------ *)
(* Statements. *)

(* Store a float into a variable: rounded to the variable's format,
   shadow kept exact, divergence recorded under [name]. *)
and store_float env (x : fx) name b : frame -> unit =
  let st = env.st and k = intern env name and ev = x.ev and at = x.at in
  match b with
  | `Slot (s, fmt) ->
      let rnd = rnd_of fmt in
      fun fr ->
        let d = ev fr in
        set_rounded fr.fl s rnd fr.fl.(at);
        fr.dd.(s) <- d;
        record st k fr.fl.(s) d
  | `Ref (r, fmt) ->
      let rnd = rnd_of fmt in
      fun fr ->
        let d = ev fr in
        let o = fr.rf.(r) and j = fr.ri.(r) in
        set_rounded o.fl j rnd fr.fl.(at);
        o.dd.(j) <- d;
        record st k o.fl.(j) d

and stmt env c s : frame -> unit =
  let g = stmt_body env c s in
  if env.metered then begin
    let st = env.st in
    fun fr ->
      if st.fuel = 0 then
        fail "fuel exhausted (infinite loop? raise the fuel limit)";
      if st.fuel > 0 then st.fuel <- st.fuel - 1;
      g fr
  end
  else g

and stmt_body env c s : frame -> unit =
  let st = env.st in
  match s with
  | Decl { name; dty = Dscalar Sint; init } -> (
      let s = fresh_i c in
      declare c name (Bi s);
      match init with
      | None -> fun fr -> fr.it.(s) <- 0
      | Some e ->
          let g = as_int e (expr env c e) in
          fun fr ->
            fr.it.(s) <- 0;
            fr.it.(s) <- g fr)
  | Decl { name; dty = Dscalar (Sflt _ as sc); init } -> (
      let fmt = Interp.effective_format env.config sc name in
      let s = fresh_f c 0.0 Dd.zero in
      declare c name (Bf (s, fmt));
      let reset fr =
        fr.fl.(s) <- 0.0;
        fr.dd.(s) <- Dd.zero
      in
      match init with
      | None -> reset
      | Some e ->
          let store = store_float env (as_float c e (expr env c e)) name (`Slot (s, fmt)) in
          fun fr ->
            reset fr;
            store fr)
  | Decl { name; dty = Darr (sc, size); init = _ } -> (
      let gn = as_int size (expr env c size) in
      let checked fr =
        let n = gn fr in
        if n < 0 then fail "array %S has negative size %d" name n;
        n
      in
      match sc with
      | Sint ->
          let s = fresh_ia c in
          declare c name (Bia s);
          fun fr -> fr.ia.(s) <- Array.make (checked fr) 0
      | Sflt _ ->
          let fmt = Interp.effective_format env.config sc name in
          let s = fresh_fa c in
          declare c name (Bfa (s, fmt));
          fun fr ->
            let n = checked fr in
            fr.fa.(s) <- { a = Array.make n 0.; afmt = fmt; da = Array.make n Dd.zero })
  | Assign (lv, e) -> assign env c lv e
  | If (cond, t, e) ->
      let gc = as_int cond (expr env c cond) in
      let gt = block env c t and ge = block env c e in
      fun fr ->
        let taken = gc fr <> 0 in
        hash_decision st (bool_of taken);
        if taken then gt fr else ge fr
  | For { var; lo; hi; down; body } ->
      let glo = as_int lo (expr env c lo) and ghi = as_int hi (expr env c hi) in
      push_scope c;
      let s = fresh_i c in
      declare c var (Bi s);
      let gbody = block env c body in
      pop_scope c;
      if down then fun fr ->
        let lo = glo fr and hi = ghi fr in
        for i = hi - 1 downto lo do
          fr.it.(s) <- i;
          gbody fr
        done
      else fun fr ->
        let lo = glo fr and hi = ghi fr in
        for i = lo to hi - 1 do
          fr.it.(s) <- i;
          gbody fr
        done
  | While (cond, body) ->
      let gc = as_int cond (expr env c cond) in
      let gbody = block env c body in
      fun fr ->
        let continue_ = ref (gc fr <> 0) in
        hash_decision st (bool_of !continue_);
        while !continue_ do
          gbody fr;
          continue_ := gc fr <> 0;
          hash_decision st (bool_of !continue_)
        done
  | Return None ->
      fun _ ->
        st.ret_tag <- 0;
        raise Ret
  | Return (Some e) -> (
      match expr env c e with
      | F x ->
          let ev = x.ev and at = x.at in
          fun fr ->
            let d = ev fr in
            st.ret_low <- fr.fl.(at);
            st.ret_dd <- d;
            st.ret_tag <- 2;
            raise Ret
      | I g ->
          fun fr ->
            st.ret_int <- g fr;
            st.ret_tag <- 1;
            raise Ret
      | E f -> f)
  | Call_stmt (name, args) -> (
      if Builtins.mem env.builtins name then effect (expr env c (Call (name, args)))
      else
        match user_call env c name args with
        | Ok call -> fun fr -> ignore (call fr)
        | Error err -> err)
  | Push lv -> (
      match (lookup c (lvalue_base lv), lv) with
      | Some (Bf (s, _)), Lvar _ ->
          fun fr ->
            Growable.Float.push st.fstack fr.fl.(s);
            Growable.push st.dstack fr.dd.(s)
      | Some (Rf (k, _)), Lvar _ ->
          fun fr ->
            let o = fr.rf.(k) and j = fr.ri.(k) in
            Growable.Float.push st.fstack o.fl.(j);
            Growable.push st.dstack o.dd.(j)
      | Some (Bi s), Lvar _ -> fun fr -> Growable.push st.istack fr.it.(s)
      | Some (Ri k), Lvar _ ->
          fun fr -> Growable.push st.istack fr.rf.(k).it.(fr.ri.(k))
      | Some (Bfa (s, _)), Lidx (_, ie) ->
          let gi = as_int ie (expr env c ie) in
          fun fr ->
            let i = gi fr in
            let r = fr.fa.(s) in
            Growable.Float.push st.fstack r.a.(i);
            Growable.push st.dstack r.da.(i)
      | Some (Bia s), Lidx (_, ie) ->
          let gi = as_int ie (expr env c ie) in
          fun fr -> Growable.push st.istack fr.ia.(s).(gi fr)
      | None, _ -> fun _ -> fail "undeclared variable %S" (lvalue_base lv)
      | Some _, _ -> fun _ -> fail "push: kind mismatch")
  | Pop lv -> (
      match (lookup c (lvalue_base lv), lv) with
      | Some (Bf (s, _)), Lvar name ->
          let k = intern env name in
          fun fr ->
            fr.fl.(s) <- Growable.Float.pop st.fstack;
            fr.dd.(s) <- Growable.pop st.dstack;
            record st k fr.fl.(s) fr.dd.(s)
      | Some (Rf (r, _)), Lvar name ->
          let k = intern env name in
          fun fr ->
            let o = fr.rf.(r) and j = fr.ri.(r) in
            o.fl.(j) <- Growable.Float.pop st.fstack;
            o.dd.(j) <- Growable.pop st.dstack;
            record st k o.fl.(j) o.dd.(j)
      | Some (Bi s), Lvar _ -> fun fr -> fr.it.(s) <- Growable.pop st.istack
      | Some (Ri k), Lvar _ ->
          fun fr -> fr.rf.(k).it.(fr.ri.(k)) <- Growable.pop st.istack
      | Some (Bfa (s, _)), Lidx (name, ie) ->
          let k = intern env name in
          let gi = as_int ie (expr env c ie) in
          fun fr ->
            let i = gi fr in
            let r = fr.fa.(s) in
            r.a.(i) <- Growable.Float.pop st.fstack;
            r.da.(i) <- Growable.pop st.dstack;
            record st k r.a.(i) r.da.(i)
      | Some (Bia s), Lidx (_, ie) ->
          let gi = as_int ie (expr env c ie) in
          fun fr -> fr.ia.(s).(gi fr) <- Growable.pop st.istack
      | None, _ -> fun _ -> fail "undeclared variable %S" (lvalue_base lv)
      | Some _, _ -> fun _ -> fail "pop: kind mismatch")

(* [Interp.store]: the value first, then the target's lookup, then its
   index. *)
and assign env c lv e : frame -> unit =
  let v = expr env c e in
  let mismatch () =
    raise_after [ effect v ]
      (Format.asprintf "kind mismatch storing into %a" Pp.pp_lvalue lv)
  in
  match (v, lookup c (lvalue_base lv), lv) with
  | E f, _, _ -> f
  | _, None, _ -> raise_after [ effect v ] (Printf.sprintf "undeclared variable %S" (lvalue_base lv))
  | F x, Some (Bf (s, fmt)), Lvar name -> store_float env x name (`Slot (s, fmt))
  | F x, Some (Rf (r, fmt)), Lvar name -> store_float env x name (`Ref (r, fmt))
  | I g, Some (Bi s), Lvar _ -> fun fr -> fr.it.(s) <- g fr
  | I g, Some (Ri k), Lvar _ -> fun fr -> fr.rf.(k).it.(fr.ri.(k)) <- g fr
  | F x, Some (Bfa (s, fmt)), Lidx (name, ie) ->
      let x = settle c env x ie in
      let gi = as_int ie (expr env c ie) in
      let st = env.st and k = intern env name and ev = x.ev and at = x.at in
      let rnd = rnd_of fmt in
      fun fr ->
        let d = ev fr in
        let i = gi fr in
        let r = fr.fa.(s) in
        if i < 0 || i >= Array.length r.a then out_of_bounds i name (Array.length r.a);
        set_rounded r.a i rnd fr.fl.(at);
        r.da.(i) <- d;
        record st k r.a.(i) d
  | I g, Some (Bia s), Lidx (name, ie) ->
      let gi = as_int ie (expr env c ie) in
      fun fr ->
        let n = g fr in
        let i = gi fr in
        let r = fr.ia.(s) in
        if i < 0 || i >= Array.length r then out_of_bounds i name (Array.length r);
        r.(i) <- n
  | _ -> mismatch ()

and seq gs : frame -> unit =
  match Array.of_list gs with
  | [||] -> fun _ -> ()
  | [| g |] -> g
  | [| g1; g2 |] -> fun fr -> g1 fr; g2 fr
  | gs ->
      let n = Array.length gs in
      fun fr ->
        for k = 0 to n - 1 do
          gs.(k) fr
        done

(* Statements in order: each may declare names the next ones see. *)
and stmts env c ss = seq (List.rev (List.fold_left (fun acc s -> stmt env c s :: acc) [] ss))

and block env c ss =
  push_scope c;
  let g = stmts env c ss in
  pop_scope c;
  g

(* ------------------------------------------------------------------ *)
(* Functions. *)

(* [f] compiled for callers passing [key]'s by-reference shapes, with
   its parameter bindings; registered before its body compiles, so
   recursive calls find it. *)
and compiled_func env f key =
  match Hashtbl.find_opt env.funcs (f.fname, key) with
  | Some cf -> cf
  | None ->
      let c = new_ctx () in
      let params =
        List.map2
          (fun p sh ->
            let b =
              match (sh, p.pty) with
              | None, Tscalar Sint -> Bi (fresh_i c)
              | None, Tscalar (Sflt _ as s) ->
                  Bf (fresh_f c 0.0 Dd.zero, Interp.effective_format env.config s p.pname)
              | None, Tarr _ -> assert false
              | Some (Kf fmt), _ -> Rf (fresh_ref c, fmt)
              | Some Ki, _ -> Ri (fresh_ref c)
              | Some (Kfa fmt), _ -> Bfa (fresh_fa c, fmt)
              | Some Kia, _ -> Bia (fresh_ia c)
            in
            declare c p.pname b;
            b)
          f.params key
      in
      let cf = new_cfunc () in
      Hashtbl.replace env.funcs (f.fname, key) (cf, params);
      finish cf c (stmts env c f.body);
      (cf, params)

and new_ctx () =
  { fl_init = []; dd_init = []; nfl = 0; cit = 0; cfa = 0; cia = 0; cref = 0; frames = [ [] ] }

and new_cfunc () =
  { body = (fun _ -> ()); fl0 = [||]; dd0 = [||]; nit = 0; nfa = 0; nia = 0; nref = 0 }

and finish cf c body =
  cf.body <- body;
  cf.fl0 <- Array.of_list (List.rev c.fl_init);
  cf.dd0 <- Array.of_list (List.rev c.dd_init);
  cf.nit <- c.cit;
  cf.nfa <- c.cfa;
  cf.nia <- c.cia;
  cf.nref <- c.cref

(* ------------------------------------------------------------------ *)

let default_builtins = Builtins.create ()

let measurement name low shadow =
  let abs_error =
    let e = Float.abs (low -. Dd.to_float shadow) in
    if Float.is_nan e then 0.0 else e
  in
  let mag = Float.abs (Dd.to_float shadow) in
  let rel_error = if mag > 1e-30 then abs_error /. mag else abs_error in
  { name; low; shadow; abs_error; rel_error }

let run ?(builtins = default_builtins) ?(dd_builtins = []) ?(config = Config.double)
    ?(mode = Config.Source) ?(fuel = -1) ~prog ~func args =
  Trace.with_span "shadow.run" @@ fun () ->
  if Trace.enabled () then Trace.add_attr "func" (Trace.Str func);
  let f = func_exn prog func in
  let st =
    {
      fstack = Growable.Float.create ();
      dstack = Growable.create ~dummy:Dd.zero ();
      istack = Growable.create ~dummy:0 ();
      div = [||];
      branch_hash = 0;
      degraded = false;
      fuel;
      ret_tag = 0;
      ret_int = 0;
      ret_low = 0.0;
      ret_dd = Dd.zero;
    }
  in
  let env =
    {
      prog; builtins; dd_builtins; config; mode; st;
      metered = fuel >= 0;
      names = Hashtbl.create 32;
      funcs = Hashtbl.create 8;
    }
  in
  (* The entry function's parameters are its own cells, filled from
     [args] below. *)
  let c = new_ctx () in
  let params =
    List.map
      (fun p ->
        let b =
          match p.pty with
          | Tscalar Sint -> Bi (fresh_i c)
          | Tscalar (Sflt _ as s) ->
              Bf (fresh_f c 0.0 Dd.zero, Interp.effective_format config s p.pname)
          | Tarr (Sflt _ as s) -> Bfa (fresh_fa c, Interp.effective_format config s p.pname)
          | Tarr Sint -> Bia (fresh_ia c)
        in
        declare c p.pname b;
        (p, b))
      f.params
  in
  let cf = new_cfunc () in
  finish cf c (stmts env c f.body);
  st.div <- Array.make (Hashtbl.length env.names) (-1.0);
  if List.compare_lengths args f.params <> 0 then
    fail "function %S expects %d arguments, got %d" f.fname
      (List.length f.params) (List.length args);
  let fr = new_frame cf in
  List.iter2
    (fun (p, b) arg ->
      match (b, arg) with
      | Bi s, Interp.Aint n -> fr.it.(s) <- n
      | Bf (s, fmt), Interp.Aflt x ->
          (* the shadow seeds from the caller's unrounded value: input
             representation error is part of the measured error *)
          fr.fl.(s) <- Fp.round fmt x;
          fr.dd.(s) <- Dd.of_float x
      | Bfa (s, fmt), Interp.Afarr a ->
          let da = Array.map Dd.of_float a in
          fr.fa.(s) <-
            (if Fp.equal_format fmt Fp.F64 then { a; afmt = fmt; da }
             else { a = Array.map (Fp.round fmt) a; afmt = fmt; da })
      | Bia s, Interp.Aiarr a -> fr.ia.(s) <- a
      | _, _ -> fail "argument kind mismatch for parameter %S" p.pname)
    params args;
  let returned = match cf.body fr with () -> false | exception Ret -> true in
  let ret, ret_int =
    match (returned, st.ret_tag) with
    | true, 2 -> (Some (measurement "<ret>" st.ret_low st.ret_dd), None)
    | true, 1 -> (None, Some st.ret_int)
    | _ -> (None, None)
  in
  let outs =
    List.filter_map
      (fun (p, b) ->
        match (p.pmode, p.pty, b) with
        | Out, Tscalar _, Bf (s, _) -> Some (measurement p.pname fr.fl.(s) fr.dd.(s))
        | _ -> None)
      params
  in
  let divergence =
    Hashtbl.fold
      (fun name k acc ->
        if st.div.(k) >= 0.0 then (name, st.div.(k)) :: acc else acc)
      env.names []
    |> List.sort (fun (na, a) (nb, b) ->
           match Float.compare b a with 0 -> String.compare na nb | c -> c)
  in
  { ret; ret_int; outs; divergence; branch_hash = st.branch_hash }

let measured_error r =
  let m = match r.ret with Some m -> m.abs_error | None -> 0.0 in
  List.fold_left (fun acc o -> Float.max acc o.abs_error) m r.outs
