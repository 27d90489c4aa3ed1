(* First-order Taylor-form evaluator over MiniFP.

   One abstract execution over an input {!Box} produces, for the
   function's return value, an interval enclosing the reference run
   (the [Config.double] execution — binary64 everywhere except
   declared-narrow storage, exactly what {!Cheffp_core.Search} measures
   against) together with an affine error form

     |ret_config - ret_reference|  <=  const + SUM_v coeff_v * u(fmt_config(v))

   with one non-negative coefficient per program variable and
   [u F64 = 0]. The form is configuration-independent, so any
   mixed-precision configuration afterwards scores in O(#vars) — the
   same shape as {!Cheffp_core.Profile} atoms, but as a sound upper
   bound instead of a first-order estimate:

   - intervals are outward-rounded ({!Interval}), so they enclose both
     the real values and the binary64 values of the reference run;
   - every rounding event of a demoted run is charged to the affine
     form: stores charge [max(mag, 2^-14) * u(fmt(v))] to their
     destination (the [2^-14] floor covers subnormal absolute rounding
     for every format down to F16), and Source-mode operation roundings
     are charged to one representative of the variable set whose
     demotion enables them (the realized rounding format is always at
     least as wide as the representative's, so the charge is an upper
     bound);
   - derivative factors (for [*], [/] and intrinsic calls) are interval
     magnitudes over the {e config-reachable} range — the reference
     interval widened by the form's worst-case slack at F16 — so the
     first-order propagation is a true bound, not an estimate;
   - coefficient arithmetic itself is inflated by a relative 1e-9,
     orders of magnitude beyond its own rounding error;
   - control flow widens gracefully: an [if] whose condition cannot be
     decided joins both branches (hull + pointwise-max forms), and when
     the condition's operands carry error — so the two runs might take
     {e different} branches — the join also charges the branch hull
     width as a constant; counted loops unroll; everything else
     (input-dependent [while], unbounded intervals, intrinsics without
     enclosures) raises {!Interval.Unbounded} rather than producing a
     number. *)

open Cheffp_ir
open Ast
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module SM = Map.Make (String)
module SS = Set.Make (String)

let give_up fmt = Format.kasprintf (fun s -> raise (Interval.Unbounded s)) fmt

(* Worst-case unit roundoff over the demotion lattice: slack evaluates
   forms as if every variable were demoted to F16. *)
let u_wide = Fp.unit_roundoff Fp.F16

(* coeff * u(fmt) must dominate the absolute subnormal rounding bound
   eta(fmt) = half the smallest subnormal: eta/u peaks at 2^-14 for
   F16, so charges never drop below it. *)
let coeff_floor = 0x1p-14

(* Relative inflation absorbing the rounding of coefficient arithmetic
   itself (a handful of binary64 ops per charge, each 2^-53). *)
let infl = 1. +. 1e-9

(* ------------------------------------------------------------------ *)
(* Error forms.                                                        *)

type form = { fconst : float; coeffs : float SM.t }

let zero_form = { fconst = 0.; coeffs = SM.empty }
let is_zero f = f.fconst = 0. && SM.is_empty f.coeffs
let coeff_sum f = SM.fold (fun _ c acc -> acc +. c) f.coeffs 0.
let slack f = f.fconst +. (u_wide *. coeff_sum f)

let add_form a b =
  if is_zero a then b
  else if is_zero b then a
  else
    {
      fconst = a.fconst +. b.fconst;
      coeffs = SM.union (fun _ x y -> Some (x +. y)) a.coeffs b.coeffs;
    }

let scale_form k f =
  if is_zero f then f
  else if Float.is_nan k || k < 0. then give_up "negative/NaN error scale"
  else
    {
      fconst = f.fconst *. k *. infl;
      coeffs = SM.map (fun c -> c *. k *. infl) f.coeffs;
    }

let max_form a b =
  if a == b then a
  else
    {
      fconst = Float.max a.fconst b.fconst;
      coeffs = SM.union (fun _ x y -> Some (Float.max x y)) a.coeffs b.coeffs;
    }

let charge f v c =
  {
    f with
    coeffs =
      SM.update v
        (function None -> Some c | Some c0 -> Some (c0 +. c))
        f.coeffs;
  }

let bump_const f c = { f with fconst = f.fconst +. c }

(* ------------------------------------------------------------------ *)
(* Abstract values.                                                    *)

(* When does the config run carry a value in a narrow format? [Top]:
   never (some contributing leaf is F64 in every configuration — a
   literal, an int conversion). [Vars s]: exactly when every variable
   in [s] is demoted (then the realized format is at least as wide as
   each member's target). [Vars empty] arises only from declared-narrow
   storage, where reference and config rounding coincide. *)
type dep = Top | Vars of SS.t

let dep_join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Vars x, Vars y -> Vars (SS.union x y)

type av = {
  iv : Interval.t;  (* encloses the Config.double reference run *)
  rfmt : Fp.format;  (* format the reference run carries the value in *)
  dep : dep;
  form : form;  (* |config - reference| *)
}

let mag_c av = Interval.mag av.iv +. slack av.form

type ival = Known of int | Anyint of bool  (* payload: fragile *)

let ival_fragile = function Known _ -> false | Anyint f -> f

type meta = { declared : Fp.format; key : string }
(* [key] is the name rounding charges are attributed to — the caller's
   variable for by-reference bindings, the local/param name otherwise
   (configurations key overrides by name, as the interpreter does). *)

type cell =
  | Cf of av * meta
  | Ci of ival
  | Cfa of av array * meta
  | Cia of ival array

type env = cell ref SM.t

let copy_cell = function
  | Cf _ as c -> c
  | Ci _ as c -> c
  | Cfa (a, m) -> Cfa (Array.copy a, m)
  | Cia a -> Cia (Array.copy a)

let copy_env (env : env) : env = SM.map (fun r -> ref (copy_cell !r)) env

type st = {
  prog : program;
  builtins : Builtins.t;
  mode : Config.rounding_mode;
  mutable fuel : int;
  mutable peaks : float SM.t;  (* per-variable max config magnitude stored *)
  mutable narrow : SS.t;  (* declared-narrow float variables seen *)
}

let note_peak st v m =
  st.peaks <-
    SM.update v
      (function None -> Some m | Some m0 -> Some (Float.max m0 m))
      st.peaks

let wider a b = if Fp.bits a >= Fp.bits b then a else b

(* ------------------------------------------------------------------ *)
(* Rounding events.                                                    *)

(* Both runs round at the same (config-independent) format: the
   interval tracks the reference's rounding; the two runs' rounded
   values differ by at most the incoming difference plus one relative
   rounding of each. *)
let same_format_round fmt av =
  let iv = Interval.round fmt av.iv in
  let form =
    if is_zero av.form then av.form
    else
      bump_const av.form
        (Fp.unit_roundoff fmt
        *. ((2. *. Interval.mag iv) +. slack av.form)
        *. infl)
  in
  { av with iv; form }

(* Source-mode operation rounding. The reference rounds at [rfmt]; the
   config run additionally rounds when its operands are all narrow —
   charged to one representative of the enabling set (the realized
   format is at least as wide as the representative's target, so
   [coeff * u(fmt(rep))] dominates). *)
let op_round st av =
  match st.mode with
  | Config.Extended -> { av with rfmt = Fp.F64; dep = Top }
  | Config.Source -> (
      let av =
        if Fp.equal_format av.rfmt Fp.F64 then av
        else same_format_round av.rfmt av
      in
      match av.dep with
      | Vars s when (not (SS.is_empty s)) && Fp.equal_format av.rfmt Fp.F64 ->
          let m = mag_c av in
          SS.iter (fun v -> note_peak st v m) s;
          let rep = SS.min_elt s in
          { av with form = charge av.form rep (Float.max m coeff_floor *. infl) }
      | _ -> av)

(* Store into storage declared [declared] whose override key is [key]:
   the reference rounds at the declared format; a configuration rounds
   at the override when [key] is demoted. Returns the av subsequent
   reads observe. *)
let store_value st ~(m : meta) av =
  if not (Fp.equal_format m.declared Fp.F64) then begin
    st.narrow <- SS.add m.key st.narrow;
    let av = same_format_round m.declared av in
    { av with rfmt = m.declared; dep = Vars SS.empty }
  end
  else begin
    let mc = mag_c av in
    note_peak st m.key mc;
    let form = charge av.form m.key (Float.max mc coeff_floor *. infl) in
    { av with rfmt = Fp.F64; dep = Vars (SS.singleton m.key); form }
  end

(* ------------------------------------------------------------------ *)
(* Joins (branch hulls).                                               *)

(* [diverging]: the two runs might take different branches (the
   condition's operands carry error), so a joined value additionally
   differs by up to the hull width plus the config slack. *)
let join_av ~diverging a b =
  if a == b then a
  else begin
    let iv = Interval.hull a.iv b.iv in
    let form = max_form a.form b.form in
    let form =
      if diverging then
        bump_const form
          (Interval.width iv +. Float.max (slack a.form) (slack b.form))
      else form
    in
    { iv; rfmt = wider a.rfmt b.rfmt; dep = dep_join a.dep b.dep; form }
  end

let join_ival ~diverging a b =
  match (a, b) with
  | Known p, Known q when p = q -> a
  | _ -> Anyint (diverging || ival_fragile a || ival_fragile b)

let join_cell ~diverging a b =
  if a == b then a
  else
    match (a, b) with
    | Cf (x, m), Cf (y, _) -> Cf (join_av ~diverging x y, m)
    | Ci x, Ci y -> Ci (join_ival ~diverging x y)
    | Cfa (xs, m), Cfa (ys, _) ->
        Cfa (Array.map2 (fun x y -> join_av ~diverging x y) xs ys, m)
    | Cia xs, Cia ys ->
        Cia (Array.map2 (fun x y -> join_ival ~diverging x y) xs ys)
    | _ -> give_up "branch join: kind mismatch"

let join_env ~diverging (base : env) (et : env) (ee : env) : env =
  SM.mapi
    (fun name r ->
      let ct = !(SM.find name et) and ce = !(SM.find name ee) in
      if ct == ce then r
      else begin
        r := join_cell ~diverging ct ce;
        r
      end)
    base

(* Join of a list of avs (unknown-index array reads). *)
let join_avs ~diverging = function
  | [] -> give_up "empty array read"
  | x :: rest -> List.fold_left (fun acc y -> join_av ~diverging acc y) x rest

(* ------------------------------------------------------------------ *)
(* Lipschitz bounds for intrinsics over the config-reachable range.    *)

let rec succ_n n x = if n = 0 then x else succ_n (n - 1) (Float.succ x)
let up4 = succ_n 4

(* Divergence of the shared libm implementation evaluated at two
   nearby points beyond the Lipschitz term of the mathematical
   function: at most two worst-case libm errors (< 2 ulps each at
   glibc), taken with generous slop. *)
let libm_slop mag = 8. *. Fp.unit_roundoff Fp.F64 *. (mag +. 1e-300)

(* sup |f'| over [wiv] (the reference interval widened by the config
   slack), rounded up. Raises for intrinsics whose derivative cannot be
   bounded on [wiv]. *)
let lipschitz1 st name (wiv : Interval.t) : float =
  let lo = Interval.lo wiv in
  match name with
  | "sin" | "cos" | "tanh" | "atan" | "fabs" -> 1.
  | "exp" -> up4 (exp (Interval.hi wiv))
  | "log" ->
      if lo > 0. then up4 (1. /. lo)
      else give_up "log: argument range touches zero"
  | "log2" ->
      if lo > 0. then up4 (1. /. (lo *. log 2.))
      else give_up "log2: argument range touches zero"
  | "log10" ->
      if lo > 0. then up4 (1. /. (lo *. log 10.))
      else give_up "log10: argument range touches zero"
  | "sqrt" ->
      if lo > 0. then up4 (1. /. (2. *. sqrt lo))
      else give_up "sqrt: argument range touches zero"
  | "tan" -> (
      match Builtins.interval1 st.builtins "tan" with
      | Some hook ->
          let tlo, thi = hook (Interval.to_pair wiv) in
          if Float.is_finite tlo && Float.is_finite thi then
            let m = Float.max (Float.abs tlo) (Float.abs thi) in
            up4 (1. +. (m *. m))
          else give_up "tan: argument range crosses a pole"
      | None -> give_up "tan: no interval enclosure registered")
  | _ -> give_up "no derivative bound for intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Expression evaluation.                                              *)

type ev = EF of av | EI of ival

exception Ret of ev option

let as_av = function
  | EF av -> av
  | EI _ -> give_up "expected a float, got an int"

let as_ival = function
  | EI i -> i
  | EF _ -> give_up "expected an int, got a float"

let burn st =
  if st.fuel <= 0 then
    give_up "abstract fuel exhausted (loop too large to unroll)";
  st.fuel <- st.fuel - 1

let find_cell env name =
  match SM.find_opt name env with
  | Some r -> r
  | None -> give_up "undeclared variable %S" name

let int_binop op a b =
  match (op, a, b) with
  | _, Anyint fa, Anyint fb -> Anyint (fa || fb)
  | _, Anyint f, Known _ | _, Known _, Anyint f -> (
      match op with
      | And | Or -> (
          (* absorbing constants keep the result known *)
          let k = match (a, b) with Known k, _ | _, Known k -> Some k | _ -> None in
          match (op, k) with
          | And, Some 0 -> Known 0
          | Or, Some k when k <> 0 -> Known 1
          | _ -> Anyint f)
      | _ -> Anyint f)
  | _, Known x, Known y -> (
      let bool_of b = Known (if b then 1 else 0) in
      match op with
      | Add -> Known (x + y)
      | Sub -> Known (x - y)
      | Mul -> Known (x * y)
      | Div -> if y = 0 then give_up "integer division by zero" else Known (x / y)
      | Mod -> if y = 0 then give_up "integer modulo by zero" else Known (x mod y)
      | Eq -> bool_of (x = y)
      | Ne -> bool_of (x <> y)
      | Lt -> bool_of (x < y)
      | Le -> bool_of (x <= y)
      | Gt -> bool_of (x > y)
      | Ge -> bool_of (x >= y)
      | And -> bool_of (x <> 0 && y <> 0)
      | Or -> bool_of (x <> 0 || y <> 0))

(* Float comparison, decided only when it holds for every point of the
   box in {e both} runs (operand intervals widened by config slack);
   fragile when the runs themselves could disagree. *)
let float_cmp op a b =
  let sa = slack a.form and sb = slack b.form in
  let alo = Interval.lo a.iv -. sa
  and ahi = Interval.hi a.iv +. sa
  and blo = Interval.lo b.iv -. sb
  and bhi = Interval.hi b.iv +. sb in
  let fragile = sa +. sb > 0. in
  let sure t f = if t then Known 1 else if f then Known 0 else Anyint fragile in
  match op with
  | Lt -> sure (ahi < blo) (alo >= bhi)
  | Le -> sure (ahi <= blo) (alo > bhi)
  | Gt -> sure (alo > bhi) (ahi <= blo)
  | Ge -> sure (alo >= bhi) (ahi < blo)
  | Eq ->
      sure
        (sa = 0. && sb = 0. && Interval.is_point a.iv && Interval.is_point b.iv
        && Interval.lo a.iv = Interval.lo b.iv)
        (ahi < blo || alo > bhi)
  | Ne ->
      sure
        (ahi < blo || alo > bhi)
        (sa = 0. && sb = 0. && Interval.is_point a.iv && Interval.is_point b.iv
        && Interval.lo a.iv = Interval.lo b.iv)
  | _ -> give_up "bad float comparison"

let float_binop st op a b =
  let raw =
    match op with
    | Add -> Interval.add a.iv b.iv
    | Sub -> Interval.sub a.iv b.iv
    | Mul -> Interval.mul a.iv b.iv
    | Div -> Interval.div a.iv b.iv
    | Mod -> give_up "%% applied to floats"
    | _ -> assert false
  in
  let form =
    match op with
    | Add | Sub -> add_form a.form b.form
    | Mul ->
        add_form
          (scale_form (Interval.mag b.iv) a.form)
          (scale_form (Interval.mag a.iv +. slack a.form) b.form)
    | Div ->
        let migb = Interval.mig b.iv in
        let lb' = migb -. slack b.form in
        if not (lb' > 0.) then
          give_up "division: demoted denominator can approach zero"
        else
          scale_form
            (1. /. (migb *. lb'))
            (add_form
               (scale_form (Interval.mag b.iv) a.form)
               (scale_form (Interval.mag a.iv) b.form))
    | _ -> assert false
  in
  op_round st
    { iv = raw; rfmt = wider a.rfmt b.rfmt; dep = dep_join a.dep b.dep; form }

(* Fold the interpreter's call-format rule: result rounds at the widest
   float argument's format (F16-based fold), F64 when no float
   arguments participate. *)
let call_meta favs =
  match favs with
  | [] -> (Fp.F64, Top)
  | _ ->
      List.fold_left
        (fun (rf, d) (a : av) -> (wider rf a.rfmt, dep_join d a.dep))
        (Fp.F16, Vars SS.empty)
        favs

let rec eval st (env : env) (e : expr) : ev =
  match e with
  | Fconst x ->
      EF { iv = Interval.point x; rfmt = Fp.F64; dep = Top; form = zero_form }
  | Iconst n -> EI (Known n)
  | Var v -> (
      match !(find_cell env v) with
      | Cf (av, _) -> EF av
      | Ci i -> EI i
      | Cfa _ | Cia _ -> give_up "array %S used as a scalar" v)
  | Idx (a, ie) -> (
      let i = as_ival (eval st env ie) in
      match (!(find_cell env a), i) with
      | Cfa (arr, _), Known i ->
          if i < 0 || i >= Array.length arr then
            give_up "index %d out of bounds for %S" i a
          else EF arr.(i)
      | Cfa (arr, _), Anyint fragile ->
          EF (join_avs ~diverging:fragile (Array.to_list arr))
      | Cia arr, Known i ->
          if i < 0 || i >= Array.length arr then
            give_up "index %d out of bounds for %S" i a
          else EI arr.(i)
      | Cia arr, Anyint fragile ->
          if Array.length arr = 0 then give_up "read from empty array %S" a
          else
            EI
              (Array.fold_left
                 (fun acc x -> join_ival ~diverging:fragile acc x)
                 arr.(0)
                 (Array.sub arr 1 (Array.length arr - 1)))
      | (Cf _ | Ci _), _ -> give_up "scalar %S indexed as an array" a)
  | Unop (Neg, e) -> (
      match eval st env e with
      | EI (Known n) -> EI (Known (-n))
      | EI (Anyint _ as i) -> EI i
      | EF a -> EF { a with iv = Interval.neg a.iv })
  | Unop (Not, e) -> (
      match as_ival (eval st env e) with
      | Known n -> EI (Known (if n = 0 then 1 else 0))
      | Anyint _ as i -> EI i)
  | Binop (op, ea, eb) -> (
      let va = eval st env ea in
      let vb = eval st env eb in
      match (va, vb) with
      | EI a, EI b -> EI (int_binop op a b)
      | EF a, EF b -> (
          match op with
          | Add | Sub | Mul | Div | Mod -> EF (float_binop st op a b)
          | Eq | Ne | Lt | Le | Gt | Ge -> EI (float_cmp op a b)
          | And | Or -> give_up "boolean op on floats")
      | _ -> give_up "kind mismatch in binary op")
  | Call (name, args) -> eval_call st env name args

and eval_call st env name args : ev =
  match Builtins.find st.builtins name with
  | None -> (
      let f = func_exn st.prog name in
      match call_func st env f args with
      | Some v -> v
      | None -> give_up "void function %S used in an expression" name)
  | Some (sg, _) -> (
      let evs = List.map (eval st env) args in
      match (name, evs) with
      | "itof", [ EI (Known n) ] ->
          EF
            {
              iv = Interval.point (float_of_int n);
              rfmt = Fp.F64;
              dep = Top;
              form = zero_form;
            }
      | "itof", [ EI (Anyint _) ] -> give_up "itof of an undetermined integer"
      | "ftoi", [ EF a ] ->
          if is_zero a.form && Interval.is_point a.iv then
            EI (Known (int_of_float (Interval.lo a.iv)))
          else EI (Anyint (not (is_zero a.form)))
      | "select", [ EI c; EF x; EF y ] -> (
          match c with
          | Known n -> EF (if n <> 0 then x else y)
          | Anyint fragile -> EF (join_av ~diverging:fragile x y))
      | "fma", [ EF a; EF b; EF c ] ->
          (* exact product-sum, one rounding: the raw interval of
             a*b + c encloses the infinitely-precise fma result *)
          let raw = Interval.add (Interval.mul a.iv b.iv) c.iv in
          let form =
            add_form
              (add_form
                 (scale_form (Interval.mag b.iv) a.form)
                 (scale_form (Interval.mag a.iv +. slack a.form) b.form))
              c.form
          in
          let rfmt, dep = call_meta [ a; b; c ] in
          EF (op_round st { iv = raw; rfmt; dep; form })
      | ("castf32" | "castf16"), [ EF a ] ->
          let fixed = if name = "castf32" then Fp.F32 else Fp.F16 in
          let a = same_format_round fixed a in
          let rfmt, dep = call_meta [ a ] in
          EF (op_round st { a with rfmt; dep })
      | ("floor" | "ceil" | "sign"), [ EF a ] -> (
          if not (is_zero a.form) then
            give_up "%s of an error-carrying value (discontinuous)" name
          else
            match Builtins.interval1 st.builtins name with
            | Some hook ->
                let iv = Interval.of_pair (hook (Interval.to_pair a.iv)) in
                let rfmt, dep = call_meta [ a ] in
                EF (op_round st { iv; rfmt; dep; form = zero_form })
            | None -> give_up "no interval enclosure for %s" name)
      | ("fmin" | "fmax"), [ EF a; EF b ] -> (
          match Builtins.interval2 st.builtins name with
          | Some hook ->
              let iv =
                Interval.of_pair
                  (hook (Interval.to_pair a.iv) (Interval.to_pair b.iv))
              in
              (* |min(a', b') - min(a, b)| <= max(|a'-a|, |b'-b|) *)
              let form = max_form a.form b.form in
              let rfmt, dep = call_meta [ a; b ] in
              EF (op_round st { iv; rfmt; dep; form })
          | None -> give_up "no interval enclosure for %s" name)
      | "pow", [ EF a; EF b ] -> (
          match Builtins.interval2 st.builtins name with
          | None -> give_up "no interval enclosure for pow"
          | Some hook ->
              let wa = Interval.widen a.iv (slack a.form)
              and wb = Interval.widen b.iv (slack b.form) in
              if not (Interval.lo wa > 0.) then
                give_up "pow: base range touches zero"
              else begin
                let iv =
                  Interval.of_pair
                    (hook (Interval.to_pair a.iv) (Interval.to_pair b.iv))
                in
                let form =
                  if is_zero a.form && is_zero b.form then zero_form
                  else begin
                    (* d/da = b*a^(b-1), d/db = ln(a)*a^b, bounded over
                       the config-reachable rectangle *)
                    let pw lo hi =
                      Interval.of_pair (hook (Interval.to_pair wa) (lo, hi))
                    in
                    let p_bm1 =
                      pw (Interval.lo wb -. 1.) (Interval.hi wb +. 1.)
                    in
                    let la = up4 (Interval.mag wb *. Interval.mag p_bm1) in
                    let labs =
                      Float.max
                        (Float.abs (log (Interval.lo wa)))
                        (Float.abs (log (Interval.hi wa)))
                    in
                    let p_b = pw (Interval.lo wb) (Interval.hi wb) in
                    let lb = up4 (up4 labs *. Interval.mag p_b) in
                    bump_const
                      (add_form (scale_form la a.form) (scale_form lb b.form))
                      (libm_slop (Interval.mag iv))
                  end
                in
                let rfmt, dep = call_meta [ a; b ] in
                EF (op_round st { iv; rfmt; dep; form })
              end)
      | _, [ EF a ] when sg.Builtins.ret = Builtins.Kflt -> (
          match Builtins.interval1 st.builtins name with
          | None -> give_up "no interval enclosure for intrinsic %s" name
          | Some hook ->
              let iv = Interval.of_pair (hook (Interval.to_pair a.iv)) in
              let form =
                if is_zero a.form then zero_form
                else begin
                  let wiv = Interval.widen a.iv (slack a.form) in
                  let l = lipschitz1 st name wiv in
                  bump_const (scale_form l a.form)
                    (libm_slop (Interval.mag iv +. (l *. slack a.form)))
                end
              in
              let rfmt, dep = call_meta [ a ] in
              EF (op_round st { iv; rfmt; dep; form }))
      | _, [ EF a; EF b ]
        when sg.Builtins.ret = Builtins.Kflt
             && is_zero a.form && is_zero b.form -> (
          (* user-registered binary intrinsic on error-free operands:
             the enclosure alone suffices *)
          match Builtins.interval2 st.builtins name with
          | None -> give_up "no interval enclosure for intrinsic %s" name
          | Some hook ->
              let iv =
                Interval.of_pair
                  (hook (Interval.to_pair a.iv) (Interval.to_pair b.iv))
              in
              let rfmt, dep = call_meta [ a; b ] in
              EF (op_round st { iv; rfmt; dep; form = zero_form }))
      | _ -> give_up "cannot bound intrinsic %s here" name)

(* Calls to user-defined functions are inlined abstractly. [In] scalars
   bind fresh cells (rounding charged to the {e parameter} name, which
   is how the interpreter keys configuration overrides too); [Out]
   scalars and arrays share the caller's cell, so charges keep the
   caller's key. *)
and call_func st env (f : func) args : ev option =
  burn st;
  if List.length args <> List.length f.params then
    give_up "function %S expects %d arguments, got %d" f.fname
      (List.length f.params) (List.length args);
  let callee = ref SM.empty in
  List.iter2
    (fun (p : param) arg ->
      let cell_ref =
        match (p.pmode, p.pty, arg) with
        | Out, Tscalar _, Var v -> find_cell env v
        | Out, Tscalar _, _ -> give_up "out argument for %S must be a variable" f.fname
        | In, Tscalar Sint, _ -> ref (Ci (as_ival (eval st env arg)))
        | In, Tscalar (Sflt declared), _ ->
            let m = { declared; key = p.pname } in
            ref (Cf (store_value st ~m (as_av (eval st env arg)), m))
        | _, Tarr _, Var v -> find_cell env v
        | _, Tarr _, _ -> give_up "array argument for %S must be a name" f.fname
      in
      callee := SM.add p.pname cell_ref !callee)
    f.params args;
  try
    ignore (exec_block st !callee f.body);
    None
  with Ret v -> v

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

and cond_tri st env c : [ `T | `F | `U of bool ] =
  match as_ival (eval st env c) with
  | Known 0 -> `F
  | Known _ -> `T
  | Anyint fragile -> `U fragile

and exec st (env : env) stmt : env =
  burn st;
  match stmt with
  | Decl { name; dty; init } -> (
      match dty with
      | Dscalar Sint ->
          let r = ref (Ci (Known 0)) in
          let env = SM.add name r env in
          Option.iter (fun e -> r := Ci (as_ival (eval st env e))) init;
          env
      | Dscalar (Sflt declared) ->
          let m = { declared; key = name } in
          let zero =
            { iv = Interval.point 0.; rfmt = Fp.F64; dep = Top; form = zero_form }
          in
          let r = ref (Cf (zero, m)) in
          let env = SM.add name r env in
          Option.iter
            (fun e -> r := Cf (store_value st ~m (as_av (eval st env e)), m))
            init;
          env
      | Darr (Sint, size) -> (
          match as_ival (eval st env size) with
          | Known n when n >= 0 ->
              SM.add name (ref (Cia (Array.make n (Known 0)))) env
          | Known n -> give_up "array %S has negative size %d" name n
          | Anyint _ -> give_up "array %S has undetermined size" name)
      | Darr (Sflt declared, size) -> (
          match as_ival (eval st env size) with
          | Known n when n >= 0 ->
              let m = { declared; key = name } in
              let zero =
                {
                  iv = Interval.point 0.;
                  rfmt = Fp.F64;
                  dep = Top;
                  form = zero_form;
                }
              in
              SM.add name (ref (Cfa (Array.make n zero, m))) env
          | Known n -> give_up "array %S has negative size %d" name n
          | Anyint _ -> give_up "array %S has undetermined size" name))
  | Assign (lv, e) ->
      let v = eval st env e in
      store st env lv v;
      env
  | If (c, t, e) -> (
      match cond_tri st env c with
      | `T -> exec_block st env t
      | `F -> exec_block st env e
      | `U diverging ->
          let et = exec_block st (copy_env env) t in
          let ee = exec_block st (copy_env env) e in
          join_env ~diverging env et ee)
  | For { var; lo; hi; down; body } -> (
      match (as_ival (eval st env lo), as_ival (eval st env hi)) with
      | Known lo, Known hi ->
          let cell = ref (Ci (Known 0)) in
          let env' = SM.add var cell env in
          let iter i =
            cell := Ci (Known i);
            ignore (exec_block st env' body)
          in
          if down then
            for i = hi - 1 downto lo do
              iter i
            done
          else
            for i = lo to hi - 1 do
              iter i
            done;
          env
      | _ -> give_up "loop bound of %S is not a compile-time-known integer" var)
  | While (c, body) -> (
      match cond_tri st env c with
      | `F -> env
      | `T ->
          ignore (exec_block st env body);
          exec st env (While (c, body))
      | `U _ -> give_up "while condition cannot be decided over the box")
  | Return None -> raise (Ret None)
  | Return (Some e) -> raise (Ret (Some (eval st env e)))
  | Call_stmt (name, args) -> (
      match Builtins.find st.builtins name with
      | Some _ ->
          ignore (eval_call st env name args);
          env
      | None ->
          let f = func_exn st.prog name in
          ignore (call_func st env f args);
          env)
  | Push _ | Pop _ -> give_up "adjoint stack ops are outside the range model"

and store st env lv v =
  match (lv, v) with
  | Lvar name, v -> (
      let r = find_cell env name in
      match (!r, v) with
      | Cf (_, m), EF av -> r := Cf (store_value st ~m av, m)
      | Ci _, EI i -> r := Ci i
      | _ -> give_up "kind mismatch storing into %S" name)
  | Lidx (name, ie), v -> (
      let r = find_cell env name in
      let idx = as_ival (eval st env ie) in
      match (!r, v, idx) with
      | Cfa (arr, m), EF av, Known i ->
          if i < 0 || i >= Array.length arr then
            give_up "index %d out of bounds for %S" i name
          else begin
            let arr = Array.copy arr in
            arr.(i) <- store_value st ~m av;
            r := Cfa (arr, m)
          end
      | Cfa (arr, m), EF av, Anyint fragile ->
          (* weak update: any element may or may not receive the store *)
          let stored = store_value st ~m av in
          r :=
            Cfa (Array.map (fun e -> join_av ~diverging:fragile e stored) arr, m)
      | Cia arr, EI i, Known j ->
          if j < 0 || j >= Array.length arr then
            give_up "index %d out of bounds for %S" j name
          else begin
            let arr = Array.copy arr in
            arr.(j) <- i;
            r := Cia arr
          end
      | Cia arr, EI i, Anyint fragile ->
          r := Cia (Array.map (fun e -> join_ival ~diverging:fragile e i) arr)
      | _ -> give_up "kind mismatch storing into %S" name)

and exec_block st env stmts =
  (* Names declared directly in the block go out of scope afterwards
     (the original binding map is returned); mutations to outer cells
     persist through their refs. *)
  ignore (List.fold_left (fun e s -> exec st e s) env stmts);
  env

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

type result = {
  ret : av;
  peaks : float SM.t;
  narrow : SS.t;
}

let bind_param st (p : param) (dim : Box.dim) : cell ref =
  match (p.pty, dim) with
  | Tscalar Sint, Box.Dfixed (Interp.Aint n) -> ref (Ci (Known n))
  | Tscalar (Sflt declared), Box.Dflt iv ->
      let m = { declared; key = p.pname } in
      ref
        (Cf
           ( store_value st ~m
               { iv; rfmt = Fp.F64; dep = Top; form = zero_form },
             m ))
  | Tscalar (Sflt declared), Box.Dfixed (Interp.Aflt v) ->
      let m = { declared; key = p.pname } in
      ref
        (Cf
           ( store_value st ~m
               { iv = Interval.point v; rfmt = Fp.F64; dep = Top; form = zero_form },
             m ))
  | Tarr (Sflt declared), Box.Dfarr ivs ->
      let m = { declared; key = p.pname } in
      ref
        (Cfa
           ( Array.map
               (fun iv ->
                 store_value st ~m
                   { iv; rfmt = Fp.F64; dep = Top; form = zero_form })
               ivs,
             m ))
  | Tarr (Sflt declared), Box.Dfixed (Interp.Afarr a) ->
      let m = { declared; key = p.pname } in
      ref
        (Cfa
           ( Array.map
               (fun v ->
                 store_value st ~m
                   {
                     iv = Interval.point v;
                     rfmt = Fp.F64;
                     dep = Top;
                     form = zero_form;
                   })
               a,
             m ))
  | Tarr Sint, Box.Dfixed (Interp.Aiarr a) ->
      ref (Cia (Array.map (fun n -> Known n) a))
  | _ -> give_up "argument kind mismatch for parameter %S" p.pname

(* Built eagerly: two domains forcing one [lazy] at once can raise
   [CamlinternalLazy.Undefined]. Lookups never mutate the registry. *)
let default_builtins = Builtins.create ()

let eval_func ?builtins ?(mode = Config.Source) ?(fuel = 2_000_000) ~prog
    ~func ~(box : Box.t) () : result =
  let builtins =
    match builtins with Some b -> b | None -> default_builtins
  in
  let st =
    { prog; builtins; mode; fuel; peaks = SM.empty; narrow = SS.empty }
  in
  let f = func_exn prog func in
  let dims = Box.dims box in
  if List.length dims <> List.length f.params then
    give_up "box does not match the parameters of %S" func;
  let env =
    List.fold_left2
      (fun env (p : param) (dname, dim) ->
        if p.pname <> dname then give_up "box dimension order mismatch";
        SM.add p.pname (bind_param st p dim) env)
      SM.empty f.params dims
  in
  let ret =
    try
      ignore (exec_block st env f.body);
      None
    with Ret v -> v
  in
  match ret with
  | Some (EF av) -> { ret = av; peaks = st.peaks; narrow = st.narrow }
  | Some (EI _) -> give_up "function %S returned an int" func
  | None -> give_up "function %S returned no value" func
