(* Shadow-execution oracle tests: hand-derived double-double identities,
   lockstep low-lane bit-identity against the interpreter, hand-computed
   cancellation kernels, and estimate soundness on every paper benchmark
   at EXPERIMENTS.md-style configurations. *)

open Cheffp_ir
open Cheffp_shadow
module B = Cheffp_benchmarks
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Tuner = Cheffp_core.Tuner

let check_exact = Alcotest.(check (float 0.))
let check_bool = Alcotest.(check bool)

let copy_args =
  List.map (function
    | Interp.Afarr a -> Interp.Afarr (Array.copy a)
    | Interp.Aiarr a -> Interp.Aiarr (Array.copy a)
    | a -> a)

(* ------------------------------------------------------------------ *)
(* Dd: hand-derived identities                                         *)
(* ------------------------------------------------------------------ *)

(* Adversarial pair: 1.0 is exactly half an ulp of 1e16, ties-to-even
   rounds the sum down, so the entire addend survives in the error
   term. Values pinned by hand. *)
let test_two_sum_halfway () =
  let s, e = Dd.two_sum 1e16 1.0 in
  check_exact "s" 1e16 s;
  check_exact "e" 1.0 e

(* The textbook non-representable sum: e must recover exactly what
   binary64 lost. (0.1 + 0.2) - 0.30000000000000004 in exact arithmetic
   over the *double* values 0.1 and 0.2. *)
let test_two_sum_point_three () =
  let s, e = Dd.two_sum 0.1 0.2 in
  check_exact "s" 0.30000000000000004 s;
  check_exact "e" (-2.7755575615628914e-17) e

(* Knuth's two_sum is branch-free and must not depend on argument
   order: the exact sum is commutative, so (s, e) must match. *)
let test_two_sum_commutes () =
  List.iter
    (fun (a, b) ->
      let s1, e1 = Dd.two_sum a b in
      let s2, e2 = Dd.two_sum b a in
      check_exact (Printf.sprintf "s %.17g %.17g" a b) s1 s2;
      check_exact (Printf.sprintf "e %.17g %.17g" a b) e1 e2)
    [ (1e16, 1.0); (0.1, 0.2); (-1e300, 1e284); (3.5, -3.5000000001); (1e-300, 1.0) ]

let test_quick_two_sum () =
  (* precondition |a| >= |b| holds; the error term is exactly b when b
     is far below one ulp of a *)
  let s, e = Dd.quick_two_sum 1.0 1e-17 in
  check_exact "s" 1.0 s;
  check_exact "e" 1e-17 e

(* Dekker split: hi + lo = x exactly, each half fits in 26 bits (so
   products of halves are exact). The 1e300 case exercises the
   overflow-guarded branch (|x| > 2^996 would overflow the splitter
   multiply without pre-scaling). *)
let test_split_reconstructs () =
  List.iter
    (fun x ->
      let hi, lo = Dd.split x in
      check_exact (Printf.sprintf "hi+lo %.17g" x) x (hi +. lo);
      check_bool (Printf.sprintf "|lo|<=|hi| %.17g" x) true
        (Float.abs lo <= Float.abs hi))
    [ 1.0; Float.pi; 134217729.0; 0.1; -1e16; 1e300; -8.98846567431158e307 ]

(* two_prod against the hardware FMA: e = fma(a, b, -p) is the exact
   product residual, the strongest available cross-check. *)
let test_two_prod_vs_fma () =
  List.iter
    (fun (a, b) ->
      let p, e = Dd.two_prod a b in
      check_exact (Printf.sprintf "p %.17g*%.17g" a b) (a *. b) p;
      check_exact (Printf.sprintf "e %.17g*%.17g" a b)
        (Float.fma a b (-.p)) e)
    [ (0.1, 0.2); (Float.pi, Float.pi); (1.0 +. 0x1p-27, 1.0 -. 0x1p-27);
      (1e8 +. 1.0, 1e8 -. 1.0); (-3.0000000001, 7.0000000007); (1e-300, 1e280) ]

let test_two_prod_adversarial () =
  (* (1 + 2^-27)^2 = 1 + 2^-26 + 2^-54: the 2^-54 term is exactly the
     bit binary64 drops (ties-to-even keeps p = 1 + 2^-26). *)
  let a = 1.0 +. 0x1p-27 in
  let p, e = Dd.two_prod a a in
  check_exact "p" (1.0 +. 0x1p-26) p;
  check_exact "e" 0x1p-54 e

let test_cancellation_survives () =
  (* The issue's canonical case: 1e16 + 1 - 1e16 = 1 exactly in dd,
     where plain binary64 returns 0. *)
  let d = Dd.sub (Dd.add_float (Dd.of_float 1e16) 1.0) (Dd.of_float 1e16) in
  check_bool "dd keeps the 1" true (Dd.equal d Dd.one);
  check_exact "binary64 drops it" 0.0 (1e16 +. 1.0 -. 1e16)

let test_add_keeps_sub_ulp () =
  (* 1 + 1e-30 - 1 = 1e-30: the addend lives entirely below one ulp of
     the high word and must round-trip through the low word. *)
  let d = Dd.sub (Dd.add_float Dd.one 1e-30) Dd.one in
  check_exact "lo survives" 1e-30 (Dd.to_float d)

let test_mul_exact_expansion () =
  (* (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60, all three terms representable
     across the two words. *)
  let a = Dd.of_float (1.0 +. 0x1p-30) in
  let expected = Dd.add (Dd.of_float (1.0 +. 0x1p-29)) (Dd.of_float 0x1p-60) in
  check_bool "square" true (Dd.equal (Dd.mul a a) expected)

let test_div_thirds () =
  (* 3 * (1/3) - 1 must vanish in both words. *)
  let third = Dd.div Dd.one (Dd.of_float 3.0) in
  let r = Dd.sub (Dd.mul_float third 3.0) Dd.one in
  check_bool "exact zero" true (Dd.equal r Dd.zero)

let test_div_roundtrip () =
  List.iter
    (fun (a, b) ->
      let q = Dd.div (Dd.of_float a) (Dd.of_float b) in
      let r = Dd.sub (Dd.mul_float q b) (Dd.of_float a) in
      let rel = Float.abs (Dd.to_float r) /. Float.abs a in
      check_bool (Printf.sprintf "%.17g/%.17g rel=%g" a b rel) true (rel < 1e-30))
    [ (1.0, 7.0); (Float.pi, 0.1); (-1e200, 3.0000000003); (2.0, 1e-200) ]

let test_sqrt_two () =
  let r = Dd.sub (Dd.mul (Dd.sqrt (Dd.of_float 2.0)) (Dd.sqrt (Dd.of_float 2.0)))
      (Dd.of_float 2.0) in
  check_bool "sqrt(2)^2 - 2 = 0 in dd" true (Dd.equal r Dd.zero)

let test_sqrt_perfect_square () =
  check_bool "sqrt 9 = 3" true (Dd.equal (Dd.sqrt (Dd.of_int 9)) (Dd.of_float 3.0));
  check_bool "sqrt 0 = 0" true (Dd.equal (Dd.sqrt Dd.zero) Dd.zero);
  check_bool "sqrt -1 nan" true (Dd.is_nan (Dd.sqrt (Dd.of_float (-1.0))))

let test_sqrt_roundtrip () =
  List.iter
    (fun a ->
      let s = Dd.sqrt (Dd.of_float a) in
      let r = Dd.sub (Dd.mul s s) (Dd.of_float a) in
      let rel = Float.abs (Dd.to_float r) /. a in
      check_bool (Printf.sprintf "sqrt %.17g rel=%g" a rel) true (rel < 1e-30))
    [ 2.0; 0.1; Float.pi; 1e300; 7e-300 ]

let test_of_int_beyond_53_bits () =
  (* Integers above 2^53 are not binary64-representable; of_int must
     carry the low bits in the second word. *)
  let p53 = 1 lsl 53 in
  check_bool "2^53 + 1" true
    (Dd.equal (Dd.sub (Dd.of_int (p53 + 1)) (Dd.of_int p53)) Dd.one);
  check_bool "2^60 + 7" true
    (Dd.equal
       (Dd.sub (Dd.of_int ((1 lsl 60) + 7)) (Dd.of_float 0x1p60))
       (Dd.of_float 7.0))

let test_floor_ceil_across_lo () =
  (* When the high word is integral the verdict hides in the low word:
     3 - 1e-20 floors to 2, 3 + 1e-20 ceils to 4. float-level floor
     would get both wrong. *)
  check_bool "floor(3 - eps) = 2" true
    (Dd.equal (Dd.floor (Dd.make 3.0 (-1e-20))) (Dd.of_float 2.0));
  check_bool "ceil(3 + eps) = 4" true
    (Dd.equal (Dd.ceil (Dd.make 3.0 1e-20)) (Dd.of_float 4.0));
  check_bool "floor(2.5) = 2" true
    (Dd.equal (Dd.floor (Dd.of_float 2.5)) (Dd.of_float 2.0))

let test_sign_compare_sub_ulp () =
  check_exact "sign of tiny negative" (-1.0) (Dd.sign (Dd.make 0.0 (-1e-300)));
  check_bool "1 < 1 + 1e-30" true
    (Dd.compare Dd.one (Dd.add_float Dd.one 1e-30) < 0);
  check_bool "equal after renorm" true
    (Dd.equal (Dd.make 1.0 0.0) Dd.one)

(* ------------------------------------------------------------------ *)
(* Dd kernels against the tuple-based reference                        *)
(* ------------------------------------------------------------------ *)

(* The arithmetic kernels as they were written before TwoSum/TwoProd
   were spelled out inline: the same algorithms over tuple-returning
   error-free transformations. The inline kernels must agree with
   these bit for bit. *)
module Tuple_dd = struct
  type t = { hi : float; lo : float }

  let of_float x = { hi = x; lo = 0.0 }

  let two_sum a b =
    let s = a +. b in
    let bb = s -. a in
    let err = (a -. (s -. bb)) +. (b -. bb) in
    (s, err)

  let quick_two_sum a b =
    let s = a +. b in
    let err = b -. (s -. a) in
    (s, err)

  let splitter = 134217729.0
  let split_threshold = 6.696928794914171e299

  let split a =
    if Float.abs a > split_threshold then begin
      let a' = a *. 3.7252902984619140625e-09 in
      let t = splitter *. a' in
      let ahi = t -. (t -. a') in
      let alo = a' -. ahi in
      (ahi *. 268435456.0, alo *. 268435456.0)
    end
    else begin
      let t = splitter *. a in
      let ahi = t -. (t -. a) in
      let alo = a -. ahi in
      (ahi, alo)
    end

  let two_prod a b =
    let p = a *. b in
    let ahi, alo = split a in
    let bhi, blo = split b in
    let err =
      ((ahi *. bhi -. p) +. (ahi *. blo) +. (alo *. bhi)) +. (alo *. blo)
    in
    (p, err)

  let neg { hi; lo } = { hi = -.hi; lo = -.lo }

  let add a b =
    let s1, s2 = two_sum a.hi b.hi in
    let t1, t2 = two_sum a.lo b.lo in
    let s2 = s2 +. t1 in
    let s1, s2 = quick_two_sum s1 s2 in
    let s2 = s2 +. t2 in
    let s1, s2 = quick_two_sum s1 s2 in
    { hi = s1; lo = s2 }

  let sub a b = add a (neg b)

  let add_float a b =
    let s1, s2 = two_sum a.hi b in
    let s2 = s2 +. a.lo in
    let s1, s2 = quick_two_sum s1 s2 in
    { hi = s1; lo = s2 }

  let mul a b =
    let p1, p2 = two_prod a.hi b.hi in
    let p2 = p2 +. (a.hi *. b.lo) +. (a.lo *. b.hi) in
    let p1, p2 = quick_two_sum p1 p2 in
    { hi = p1; lo = p2 }

  let mul_float a b =
    let p1, p2 = two_prod a.hi b in
    let p2 = p2 +. (a.lo *. b) in
    let p1, p2 = quick_two_sum p1 p2 in
    { hi = p1; lo = p2 }

  let div a b =
    let q1 = a.hi /. b.hi in
    if not (Float.is_finite q1) || b.hi = 0.0 then of_float q1
    else begin
      let r = sub a (mul_float b q1) in
      let q2 = r.hi /. b.hi in
      let r = sub r (mul_float b q2) in
      let q3 = r.hi /. b.hi in
      let q1, q2 = quick_two_sum q1 q2 in
      add_float { hi = q1; lo = q2 } q3
    end

  let sqrt a =
    if a.hi = 0.0 then { hi = Float.sqrt a.hi; lo = 0.0 }
    else if a.hi < 0.0 then of_float Float.nan
    else if not (Float.is_finite a.hi) then of_float a.hi
    else begin
      let x = 1.0 /. Float.sqrt a.hi in
      let ax = a.hi *. x in
      let residual = sub a (mul (of_float ax) (of_float ax)) in
      add (of_float ax) (mul_float residual (x *. 0.5))
    end
end

(* Floats from every regime the kernels branch on: ordinary magnitudes,
   the 2^996 split-scaling range, tiny normals, subnormals, signed
   zeros, infinities and NaN. *)
let gen_edge_float : float QCheck.Gen.t =
  let open QCheck.Gen in
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  frequency
    [
      (6, signed (map2 Float.ldexp (float_range 0.5 1.0) (int_range (-60) 60)));
      (2, signed (map2 Float.ldexp (float_range 0.5 1.0) (int_range 990 1023)));
      (2, signed (map2 Float.ldexp (float_range 0.5 1.0) (int_range (-1021) (-960))));
      (2, signed (map (fun m -> Float.ldexp (float_of_int m) (-1074)) (int_range 1 0xFFFFF)));
      (1, oneofl [ 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan ]);
    ]

(* A dd operand: a binary64 head plus, most of the time, a tail below
   its last bit, built through [Dd.make] so it satisfies the invariant
   the kernels assume (inf/NaN heads produce the non-finite tails the
   kernels must still treat identically). *)
let gen_dd : Dd.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* hi = gen_edge_float in
  let* tail = frequency [ (1, return 0.0); (3, float_range (-0.5) 0.5) ] in
  let* raw = frequency [ (5, return false); (1, bool) ] in
  let lo = if raw then tail else hi *. tail *. 0x1p-53 in
  return (Dd.make hi lo)

let to_tuple (d : Dd.t) = { Tuple_dd.hi = d.Dd.hi; lo = d.Dd.lo }

(* Bit equality, except that any two NaNs match: which NaN operand an
   x86 addition or multiplication propagates (and so the payload and
   sign) follows the operand order ocamlopt picks for a commutative
   instruction, not the source. *)
let same_float x y =
  (Float.is_nan x && Float.is_nan y)
  || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_bits (d : Dd.t) (r : Tuple_dd.t) =
  same_float d.Dd.hi r.Tuple_dd.hi && same_float d.Dd.lo r.Tuple_dd.lo

let show_dd (d : Dd.t) = Printf.sprintf "(%h, %h)" d.Dd.hi d.Dd.lo

let dd_kernel_props =
  let count = 4000 in
  let binary name inline tuple =
    QCheck.Test.make ~count ~name:("dd " ^ name ^ " = tuple kernel")
      (QCheck.make
         ~print:(fun (a, b) -> show_dd a ^ " " ^ show_dd b)
         (QCheck.Gen.pair gen_dd gen_dd))
      (fun (a, b) -> same_bits (inline a b) (tuple (to_tuple a) (to_tuple b)))
  in
  let with_float name inline tuple =
    QCheck.Test.make ~count ~name:("dd " ^ name ^ " = tuple kernel")
      (QCheck.make
         ~print:(fun (a, b) -> show_dd a ^ Printf.sprintf " %h" b)
         (QCheck.Gen.pair gen_dd gen_edge_float))
      (fun (a, b) -> same_bits (inline a b) (tuple (to_tuple a) b))
  in
  [
    binary "add" Dd.add Tuple_dd.add;
    binary "sub" Dd.sub Tuple_dd.sub;
    binary "mul" Dd.mul Tuple_dd.mul;
    binary "div" Dd.div Tuple_dd.div;
    with_float "add_float" Dd.add_float Tuple_dd.add_float;
    with_float "mul_float" Dd.mul_float Tuple_dd.mul_float;
    QCheck.Test.make ~count ~name:"dd sqrt = tuple kernel"
      (QCheck.make ~print:show_dd gen_dd)
      (fun a -> same_bits (Dd.sqrt a) (Tuple_dd.sqrt (to_tuple a)));
  ]

(* The inline kernels allocate only their result record (3 words). *)
let test_dd_kernels_allocate_result_only () =
  let a = Dd.make 1.1 1e-17 and b = Dd.make 3.3 (-2e-17) in
  let per_call f =
    ignore (f a b);
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f a b))
    done;
    (Gc.minor_words () -. w0) /. 1000.
  in
  List.iter
    (fun (name, f) ->
      check_exact (name ^ " words per call") 3.0 (per_call f))
    [
      ("add", Dd.add);
      ("sub", Dd.sub);
      ("mul", Dd.mul);
      ("add_float", fun a _ -> Dd.add_float a 0.7);
      ("mul_float", fun a _ -> Dd.mul_float a 0.7);
    ]

(* ------------------------------------------------------------------ *)
(* Shadow.run: hand-computed kernels and interpreter bit-identity      *)
(* ------------------------------------------------------------------ *)

let cancel_prog =
  Parser.parse_program
    {|
func cancel(x: f64): f64 {
  var a: f64 = x + 1.0;
  var b: f64 = a - x;
  return b;
}
|}

let test_shadow_cancellation_kernel () =
  (* x = 1e16: binary64 loses the 1.0 entirely (ties-to-even), the
     shadow lane keeps it, so the measured error is exactly 1.0. *)
  let r = Shadow.run ~prog:cancel_prog ~func:"cancel" [ Interp.Aflt 1e16 ] in
  let m = Option.get r.Shadow.ret in
  check_exact "low lane" 0.0 m.Shadow.low;
  check_bool "shadow lane" true (Dd.equal m.Shadow.shadow Dd.one);
  check_exact "abs error" 1.0 m.Shadow.abs_error;
  check_exact "rel error" 1.0 m.Shadow.rel_error;
  check_exact "measured_error" 1.0 (Shadow.measured_error r)

let mini_simpson_prog =
  (* Simpson's rule for sin over [0, pi] with n = 4 panels: small
     enough to hand-compute the true dd value's binary64 rounding. *)
  Parser.parse_program
    {|
func simpson4(a: f64, b: f64): f64 {
  var h: f64 = (b - a) / 4.0;
  var s: f64 = sin(a) + sin(b);
  var x: f64;
  for i in 1 .. 4 {
    x = a + itof(i) * h;
    if (i % 2 == 1) {
      s = s + 4.0 * sin(x);
    } else {
      s = s + 2.0 * sin(x);
    }
  }
  return s * h / 3.0;
}
|}

let test_shadow_mini_simpson () =
  let args = [ Interp.Aflt 0.0; Interp.Aflt Float.pi ] in
  let r = Shadow.run ~prog:mini_simpson_prog ~func:"simpson4" (copy_args args) in
  let m = Option.get r.Shadow.ret in
  (* low lane is bit-identical to the plain interpreter... *)
  check_exact "low = Interp"
    (Interp.run_float ~prog:mini_simpson_prog ~func:"simpson4" (copy_args args))
    m.Shadow.low;
  (* ...the value is the textbook Simpson estimate of 2 (error O(h^4)) *)
  check_bool "integrates sine" true (Float.abs (m.Shadow.low -. 2.0) < 1e-2);
  (* ...and in all-binary64 the measured true error sits at the
     rounding floor: a handful of ulps around 2.0. *)
  check_bool "error at rounding floor" true (m.Shadow.rel_error < 1e-14)

(* ------------------------------------------------------------------ *)
(* Golden oracle results                                               *)
(* ------------------------------------------------------------------ *)

(* Every field of [Shadow.run]'s result on a fixed set of runs, pinned
   as hexadecimal floats in shadow_golden.txt: the five paper kernels
   at small sizes, all-binary64 and under the configuration the
   serve-mix search chooses for them (the perfbench search ledger's
   sets for Black-Scholes and HPCCG), in both rounding modes; the
   FastApprox Black-Scholes variant, whose intrinsics have no shadow
   implementation (the degraded path); [calls_prog] under three
   configurations; and the 48 FPCore corpus kernels
   at uniform binary32 on their :pre midpoints. The file was captured
   from the AST-walking oracle this compiled one replaced;
   [dump_golden] writes the same format from the current code. *)

(* User functions: copied in-parameters, out-parameters by reference
   (one cell passed twice), arrays shared with the callee, recursion,
   and the intrinsics with discrete results. *)
let calls_prog =
  Parser.parse_program
    {|
func sq(x: f64): f64 { var y: f64 = x * x; return y; }
func acc(a: f64, out s: f64, out n: int): void { s = s + a; n = n + 1; }
func fill(v: f64[], k: int): void {
  for i in 0 .. k { v[i] = v[i] * 0.1 + sq(itof(i)); }
}
func fact(n: int): f64 { if (n <= 1) { return 1.0; } return itof(n) * fact(n - 1); }
func both(out p: f64, out q: f64): void { p = p + 1.5; q = q * 3.0; p = p * q; }
func main(x: f64, m: int, out r: f64, out c: int): f64 {
  var s: f64 = 0.0;
  var n: int = 0;
  var v: f64[8];
  for i in 0 .. 8 { v[i] = x / itof(i + 1); }
  fill(v, m);
  for i in 0 .. m { acc(v[i] + sq(x), s, n); }
  both(s, s);
  r = s * fact(m) + select(n > 2, x, -x) + fmin(x, s) + fmax(x, 0.1);
  c = n + ftoi(r) % 7;
  var w: f64 = sign(r) + floor(x * 3.3) + ceil(x) + pow(fabs(x) + 1.0, 1.5);
  return w + r + castf32(s) + castf16(x) + fma(x, x, s) + exp(x * 0.1);
}
|}

type golden_case = {
  label : string;
  run : unit -> Shadow.result;
}

let golden_cases () =
  let paper =
    let fast_builtins =
      let b = Builtins.create () in
      Cheffp_fastapprox.Fastapprox.register_builtins b;
      b
    in
    let kernels =
      [
        ( "arclength", B.Arclength.program, B.Arclength.func_name,
          (fun () -> B.Arclength.args ~n:200),
          [ "p2"; "d"; "fx"; "t2"; "h"; "x" ], None );
        ( "simpsons", B.Simpsons.program, B.Simpsons.func_name,
          (fun () -> B.Simpsons.args ~a:0. ~b:Float.pi ~n:200),
          [ "a"; "b"; "h" ], None );
        ( "kmeans", B.Kmeans.program, B.Kmeans.func_name,
          (fun () -> B.Kmeans.args (B.Kmeans.generate ~npoints:40 ())),
          [ "attributes" ], None );
        ( "blackscholes",
          B.Blackscholes.program B.Blackscholes.Exact,
          B.Blackscholes.func_name,
          (fun () -> B.Blackscholes.args (B.Blackscholes.generate ~n:3 ())),
          [ "lsk"; "d1" ], None );
        ( "blackscholes-fast",
          B.Blackscholes.program B.Blackscholes.Fast_log_sqrt_exp,
          B.Blackscholes.func_name,
          (fun () -> B.Blackscholes.args (B.Blackscholes.generate ~n:3 ())),
          [ "lsk"; "d1" ], Some fast_builtins );
        ( "hpccg", B.Hpccg.program, B.Hpccg.func_name,
          (fun () ->
            B.Hpccg.args (B.Hpccg.generate ~nx:4 ~ny:4 ~nz:4 ~max_iter:6 ())),
          [ "vals"; "b"; "normr" ], None );
      ]
    in
    List.concat_map
      (fun (name, prog, func, args, chosen, builtins) ->
        List.concat_map
          (fun (cname, config) ->
            List.map
              (fun (mname, mode) ->
                {
                  label = String.concat "." [ name; cname; mname ];
                  run =
                    (fun () ->
                      Shadow.run ?builtins ~config ~mode ~prog ~func (args ()));
                })
              [ ("source", Config.Source); ("extended", Config.Extended) ])
          [
            ("f64", Config.double);
            ("chosen", Config.demote_all Config.double chosen Fp.F32);
          ])
      kernels
  in
  let calls =
    List.map
      (fun (cname, config, mode) ->
        {
          label = "calls." ^ cname;
          run =
            (fun () ->
              Shadow.run ~config ~mode ~prog:calls_prog ~func:"main"
                [ Interp.Aflt 0.7; Interp.Aint 3; Interp.Aflt 0.5; Interp.Aint 3 ]);
        })
      [
        ("f64.source", Config.double, Config.Source);
        ( "demoted.source",
          Config.demote_all Config.double [ "s"; "v"; "y" ] Fp.F32,
          Config.Source );
        ( "demoted.extended",
          Config.demote (Config.demote_all Config.double [ "s"; "v" ] Fp.F32) "p" Fp.F16,
          Config.Extended );
      ]
  in
  let corpus =
    List.map
      (fun (e : B.Corpus.entry) ->
        let core = e.B.Corpus.core in
        let func = core.Cheffp_fpcore.Import.name in
        {
          label = "corpus." ^ func;
          run =
            (fun () ->
              Shadow.run ~config:(Config.uniform Fp.F32) ~mode:Config.Source
                ~prog:e.B.Corpus.prog ~func
                (copy_args core.Cheffp_fpcore.Import.default_args));
        })
      (B.Corpus.load ())
  in
  paper @ calls @ corpus

let hex x = if Float.is_nan x then "nan" else Printf.sprintf "%h" x

let render_result label (r : Shadow.result) =
  let m tag (m : Shadow.measurement) =
    String.concat " "
      [ tag; m.Shadow.name; hex m.Shadow.low; hex m.Shadow.shadow.Dd.hi;
        hex m.Shadow.shadow.Dd.lo; hex m.Shadow.abs_error;
        hex m.Shadow.rel_error ]
  in
  [ "case " ^ label ]
  @ (match r.Shadow.ret with Some x -> [ m "ret" x ] | None -> [])
  @ (match r.Shadow.ret_int with
    | Some n -> [ Printf.sprintf "ret_int %d" n ]
    | None -> [])
  @ List.map (m "out") r.Shadow.outs
  @ List.map (fun (n, g) -> Printf.sprintf "div %s %s" n (hex g))
      r.Shadow.divergence
  @ [ Printf.sprintf "hash %d" r.Shadow.branch_hash ]

let dump_golden () =
  List.iter
    (fun c -> List.iter print_endline (render_result c.label (c.run ())))
    (golden_cases ())

(* The golden file, split into one line list per case. *)
let golden_file () =
  let ic = open_in "shadow_golden.txt" in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  let cases = Hashtbl.create 128 in
  let flush label acc =
    match label with
    | Some l -> Hashtbl.replace cases l (List.rev acc)
    | None -> ()
  in
  let label, acc =
    List.fold_left
      (fun (label, acc) line ->
        if String.starts_with ~prefix:"case " line then begin
          flush label acc;
          (Some (String.sub line 5 (String.length line - 5)), [ line ])
        end
        else (label, line :: acc))
      (None, []) (lines [])
  in
  flush label acc;
  cases

let test_golden () =
  let golden = golden_file () in
  let cases = golden_cases () in
  Alcotest.(check int) "cases in golden file" (List.length cases)
    (Hashtbl.length golden);
  List.iter
    (fun c ->
      let want =
        match Hashtbl.find_opt golden c.label with
        | Some l -> l
        | None -> Alcotest.failf "no golden result for %s" c.label
      in
      Alcotest.(check (list string)) c.label want (render_result c.label (c.run ())))
    cases

let demoted_arclength_config =
  Config.demote_all Config.double [ "s1"; "t1"; "t2"; "d" ] Fp.F32

let test_shadow_bit_identity_with_interp () =
  (* The low lane must reproduce Interp.run bit for bit: all-F64 and a
     demoted configuration, in both rounding modes. *)
  let prog = B.Arclength.program and func = B.Arclength.func_name in
  List.iter
    (fun (label, config, mode) ->
      let expect =
        Interp.run_float ~config ~mode ~prog ~func (B.Arclength.args ~n:200)
      in
      let r = Shadow.run ~config ~mode ~prog ~func (B.Arclength.args ~n:200) in
      check_exact label expect (Option.get r.Shadow.ret).Shadow.low)
    [
      ("f64 source", Config.double, Config.Source);
      ("f64 extended", Config.double, Config.Extended);
      ("demoted source", demoted_arclength_config, Config.Source);
      ("demoted extended", demoted_arclength_config, Config.Extended);
      ("uniform f16 source", Config.uniform Fp.F16, Config.Source);
    ]

let worst_rel (r : Shadow.result) =
  let ms = (match r.Shadow.ret with Some m -> [ m ] | None -> []) @ r.Shadow.outs in
  List.fold_left (fun acc m -> Float.max acc m.Shadow.rel_error) 0.0 ms

(* All-F64 runs measured against the dd reference must sit at the
   binary64 rounding floor — the "~0 error" property. The residual is
   genuine f64 rounding accumulated over O(n) operations (documented in
   DESIGN.md §10), so the bound scales with the operation count but
   stays many orders below any demotion effect. *)
let test_shadow_all_f64_error_floor () =
  let check_floor label run limit =
    let rel = worst_rel run in
    check_bool (Printf.sprintf "%s rel=%g" label rel) true (rel < limit)
  in
  check_floor "arclength"
    (Shadow.run ~prog:B.Arclength.program ~func:B.Arclength.func_name
       (B.Arclength.args ~n:2000))
    1e-12;
  check_floor "simpsons"
    (Shadow.run ~prog:B.Simpsons.program ~func:B.Simpsons.func_name
       (B.Simpsons.args ~a:0.0 ~b:Float.pi ~n:500))
    1e-12;
  (let w = B.Kmeans.generate ~npoints:200 () in
   check_floor "kmeans"
     (Shadow.run ~prog:B.Kmeans.program ~func:B.Kmeans.func_name
        (copy_args (B.Kmeans.args w)))
     1e-12);
  (let w = B.Blackscholes.generate ~n:2 () in
   check_floor "blackscholes"
     (Shadow.run
        ~prog:(B.Blackscholes.program B.Blackscholes.Exact)
        ~func:B.Blackscholes.price_func
        (copy_args (B.Blackscholes.price_args w 0)))
     1e-12);
  (let w = B.Hpccg.generate ~nx:5 ~ny:5 ~nz:5 ~max_iter:8 () in
   check_floor "hpccg"
     (Shadow.run ~prog:B.Hpccg.program ~func:B.Hpccg.func_name
        (copy_args (B.Hpccg.args w)))
     1e-11)

let test_shadow_divergence_tracking () =
  let r =
    Shadow.run ~config:demoted_arclength_config ~mode:Config.Source
      ~prog:B.Arclength.program ~func:B.Arclength.func_name
      (B.Arclength.args ~n:200)
  in
  check_bool "nonempty" true (r.Shadow.divergence <> []);
  check_bool "sorted descending, non-negative" true
    (let rec ok = function
       | (_, a) :: ((_, b) :: _ as rest) -> a >= b && b >= 0.0 && ok rest
       | [ (_, a) ] -> a >= 0.0
       | [] -> true
     in
     ok r.Shadow.divergence);
  (* the demoted accumulator must be among the tracked names *)
  check_bool "s1 tracked" true (List.mem_assoc "s1" r.Shadow.divergence)

let branchy_prog =
  Parser.parse_program
    {|
func branchy(x: f64): f64 {
  var t: f64 = x * x;
  if (t < 0.0099999) {
    return 1.0;
  }
  return 0.0;
}
|}

(* Run-time errors: the oracle fails where the interpreter fails, with
   the interpreter's message, and a runaway loop under a fuel budget
   stops instead of hanging. *)
let runtime_error f =
  match f () with
  | _ -> Alcotest.fail "expected Interp.Runtime_error"
  | exception Interp.Runtime_error msg -> msg

let check_same_error label prog func args =
  let i = runtime_error (fun () -> ignore (Interp.run ~fuel:10_000 ~prog ~func (copy_args args))) in
  let s = runtime_error (fun () -> ignore (Shadow.run ~fuel:10_000 ~prog ~func (copy_args args))) in
  Alcotest.(check string) label i s;
  i

let test_shadow_fuel_exhausted () =
  let prog =
    Parser.parse_program
      {|
func spin(y: f64): f64 {
  while (y > 0.0) {
    y = y + 1.0;
  }
  return y;
}
|}
  in
  let msg = check_same_error "same message" prog "spin" [ Interp.Aflt 1.0 ] in
  check_bool ("fuel exhausted: " ^ msg) true
    (String.starts_with ~prefix:"fuel exhausted" msg)

let test_shadow_out_of_bounds () =
  let prog =
    Parser.parse_program
      {|
func oob(v: f64[], k: int): f64 {
  var s: f64 = 0.0;
  for i in 0 .. k {
    s = s + v[i];
  }
  return s;
}
|}
  in
  let msg =
    check_same_error "same message" prog "oob"
      [ Interp.Afarr [| 1.0; 2.0; 3.0 |]; Interp.Aint 4 ]
  in
  Alcotest.(check string) "text" "index 3 out of bounds for \"v\" (length 3)" msg

let test_shadow_int_division_by_zero () =
  let prog =
    Parser.parse_program
      {|
func quot(x: f64, k: int): f64 {
  var q: int = 7 / k;
  return x * itof(q);
}
|}
  in
  let msg =
    check_same_error "same message" prog "quot" [ Interp.Aflt 2.0; Interp.Aint 0 ]
  in
  Alcotest.(check string) "text" "integer division by zero" msg

let test_shadow_branch_hash () =
  let run config =
    Shadow.run ~config ~mode:Config.Source ~prog:branchy_prog ~func:"branchy"
      [ Interp.Aflt 0.1 ]
  in
  let f64 = run Config.double in
  let f64' = run Config.double in
  let f16 = run (Config.uniform Fp.F16) in
  (* deterministic: identical runs hash identically *)
  Alcotest.(check int) "stable" f64.Shadow.branch_hash f64'.Shadow.branch_hash;
  (* 0.1^2 in binary64 is 0.010000000000000002 (branch not taken); in
     F16 the square lands near 0.009995 (branch taken): the decision
     flips and the hash must expose it. *)
  check_exact "f64 takes else" 0.0 (Option.get f64.Shadow.ret).Shadow.low;
  check_exact "f16 takes then" 1.0 (Option.get f16.Shadow.ret).Shadow.low;
  check_bool "hash differs" true
    (f64.Shadow.branch_hash <> f16.Shadow.branch_hash)

(* ------------------------------------------------------------------ *)
(* Oracle: estimate soundness on the paper benchmarks                  *)
(* ------------------------------------------------------------------ *)

let tuned ~prog ~func ~args ~threshold =
  (Tuner.tune ~prog ~func ~args ~threshold ()).Tuner.evaluation.Tuner.config

let check_sound label v =
  check_bool
    (Printf.sprintf "%s sound (measured %.3e bound %.3e)" label
       v.Oracle.measured_error v.Oracle.bound)
    true v.Oracle.sound;
  check_bool (label ^ " no branch divergence") true
    (not v.Oracle.branch_divergence)

let test_oracle_arclength () =
  let prog = B.Arclength.program and func = B.Arclength.func_name in
  let args = B.Arclength.args ~n:1000 in
  let config = tuned ~prog ~func ~args ~threshold:1e-5 in
  let v = Oracle.check_estimate ~prog ~func ~config args in
  check_sound "arclength extended" v;
  check_bool "demotes something" true (v.Oracle.demoted <> []);
  check_exact "bound arithmetic"
    ((v.Oracle.margin *. v.Oracle.modelled_error) +. v.Oracle.baseline_error)
    v.Oracle.bound;
  (* Source mode rounds per operation while the model charges one
     rounding per assignment: Table I's arclength overshoot. The
     tuner's own margin of 2 restores coverage. *)
  let vs =
    Oracle.check_estimate ~mode:Config.Source ~margin:2.0 ~prog ~func ~config
      args
  in
  check_sound "arclength source margin 2" vs

let test_oracle_simpsons () =
  let prog = B.Simpsons.program and func = B.Simpsons.func_name in
  let args = B.Simpsons.args ~a:0.0 ~b:Float.pi ~n:500 in
  let config = tuned ~prog ~func ~args ~threshold:1e-6 in
  check_sound "simpsons" (Oracle.check_estimate ~prog ~func ~config args)

let test_oracle_kmeans () =
  let w = B.Kmeans.generate ~npoints:200 () in
  let prog = B.Kmeans.program and func = B.Kmeans.func_name in
  let args = B.Kmeans.args w in
  let config = tuned ~prog ~func ~args ~threshold:1e-6 in
  check_sound "kmeans" (Oracle.check_estimate ~prog ~func ~config args)

let test_oracle_blackscholes () =
  let w = B.Blackscholes.generate ~n:4 () in
  let v =
    Oracle.check_estimate
      ~prog:(B.Blackscholes.program B.Blackscholes.Exact)
      ~func:B.Blackscholes.price_func
      ~config:(Config.uniform Fp.F32)
      (B.Blackscholes.price_args w 0)
  in
  check_sound "blackscholes uniform f32" v

let test_oracle_hpccg () =
  let w = B.Hpccg.generate ~nx:6 ~ny:6 ~nz:6 ~max_iter:10 () in
  let v =
    Oracle.check_estimate ~prog:B.Hpccg.program ~func:B.Hpccg.func_name
      ~config:
        (Config.demote_all Config.double
           [ "r"; "p"; "ap"; "sum"; "alpha"; "beta"; "rtrans"; "oldrtrans" ]
           Fp.F32)
      (B.Hpccg.args w)
  in
  check_sound "hpccg mixed" v

let test_oracle_all_f64_trivially_sound () =
  (* With nothing demoted the modelled demotion error is zero, the
     measured error *is* the inherent binary64 floor, and the baseline
     covers it by construction. *)
  let prog = B.Arclength.program and func = B.Arclength.func_name in
  let v =
    Oracle.check_estimate ~prog ~func ~config:Config.double
      (B.Arclength.args ~n:500)
  in
  check_bool "sound" true v.Oracle.sound;
  check_exact "no demotions" 0.0 (float_of_int (List.length v.Oracle.demoted));
  check_exact "no modelled demotion error" 0.0 v.Oracle.modelled_error;
  check_exact "measured = inherent" v.Oracle.inherent_error v.Oracle.measured_error;
  check_bool "baseline >= inherent" true
    (v.Oracle.baseline_error >= v.Oracle.inherent_error)

let test_oracle_detects_unsound () =
  (* Strip the model's contribution (margin 0, slack 0): a genuinely
     demoted run must now overshoot the bare binary64 baseline, i.e.
     the verdict machinery can actually fail. *)
  let prog = B.Arclength.program and func = B.Arclength.func_name in
  let args = B.Arclength.args ~n:1000 in
  let config = tuned ~prog ~func ~args ~threshold:1e-5 in
  let v =
    Oracle.check_estimate ~margin:0.0 ~slack:0.0 ~prog ~func ~config args
  in
  check_bool "unsound without the model" true (not v.Oracle.sound);
  check_bool "render says UNSOUND" true
    (let s = Oracle.render v in
     let n = String.length s and p = "UNSOUND" in
     let rec find i =
       i + String.length p <= n
       && (String.sub s i (String.length p) = p || find (i + 1))
     in
     find 0)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--dump-golden" then begin
    dump_golden ();
    exit 0
  end;
  Alcotest.run "shadow"
    [
      ( "dd",
        [
          Alcotest.test_case "two_sum halfway ties" `Quick test_two_sum_halfway;
          Alcotest.test_case "two_sum 0.1+0.2" `Quick test_two_sum_point_three;
          Alcotest.test_case "two_sum commutes" `Quick test_two_sum_commutes;
          Alcotest.test_case "quick_two_sum" `Quick test_quick_two_sum;
          Alcotest.test_case "split reconstructs" `Quick test_split_reconstructs;
          Alcotest.test_case "two_prod vs fma" `Quick test_two_prod_vs_fma;
          Alcotest.test_case "two_prod adversarial" `Quick
            test_two_prod_adversarial;
          Alcotest.test_case "cancellation survives" `Quick
            test_cancellation_survives;
          Alcotest.test_case "add keeps sub-ulp" `Quick test_add_keeps_sub_ulp;
          Alcotest.test_case "mul exact expansion" `Quick
            test_mul_exact_expansion;
          Alcotest.test_case "div thirds" `Quick test_div_thirds;
          Alcotest.test_case "div roundtrip" `Quick test_div_roundtrip;
          Alcotest.test_case "sqrt two" `Quick test_sqrt_two;
          Alcotest.test_case "sqrt perfect square" `Quick
            test_sqrt_perfect_square;
          Alcotest.test_case "sqrt roundtrip" `Quick test_sqrt_roundtrip;
          Alcotest.test_case "of_int beyond 53 bits" `Quick
            test_of_int_beyond_53_bits;
          Alcotest.test_case "floor/ceil across lo" `Quick
            test_floor_ceil_across_lo;
          Alcotest.test_case "sign/compare sub-ulp" `Quick
            test_sign_compare_sub_ulp;
          Alcotest.test_case "kernels allocate only the result" `Quick
            test_dd_kernels_allocate_result_only;
        ]
        @ List.map QCheck_alcotest.to_alcotest dd_kernel_props );
      ( "shadow",
        [
          Alcotest.test_case "cancellation kernel" `Quick
            test_shadow_cancellation_kernel;
          Alcotest.test_case "mini simpson" `Quick test_shadow_mini_simpson;
          Alcotest.test_case "bit identity with interp" `Quick
            test_shadow_bit_identity_with_interp;
          Alcotest.test_case "all-f64 error floor" `Quick
            test_shadow_all_f64_error_floor;
          Alcotest.test_case "divergence tracking" `Quick
            test_shadow_divergence_tracking;
          Alcotest.test_case "branch hash" `Quick test_shadow_branch_hash;
          Alcotest.test_case "golden results" `Quick test_golden;
          Alcotest.test_case "fuel exhausted like interp" `Quick
            test_shadow_fuel_exhausted;
          Alcotest.test_case "out of bounds like interp" `Quick
            test_shadow_out_of_bounds;
          Alcotest.test_case "division by zero like interp" `Quick
            test_shadow_int_division_by_zero;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "arclength" `Quick test_oracle_arclength;
          Alcotest.test_case "simpsons" `Quick test_oracle_simpsons;
          Alcotest.test_case "kmeans" `Quick test_oracle_kmeans;
          Alcotest.test_case "blackscholes" `Quick test_oracle_blackscholes;
          Alcotest.test_case "hpccg" `Quick test_oracle_hpccg;
          Alcotest.test_case "all-f64 trivially sound" `Quick
            test_oracle_all_f64_trivially_sound;
          Alcotest.test_case "detects unsound" `Quick
            test_oracle_detects_unsound;
        ] );
    ]
