(* Rigorous range bounds (lib/range, DESIGN.md §17).

   Three claims, each with its own suite:

   - Interval arithmetic is an outward-rounded enclosure: every
     operation's result interval contains the pointwise binary64 result
     of any operand points (fuzzed), and operations with no finite
     enclosure raise [Unbounded] instead of returning a number.

   - Box derivation matches its spec: +/- 50% around the base value,
     widened to the absolute [-1, 1] interval at zero (a relative box
     collapses to a point there), [--box] override parsing, splitting.

   - Soundness: on >= 120 random MiniFP programs and on the whole
     FPCore corpus, a certified all-candidates-at-F32 bound dominates
     the sampled/measured demotion error (64-lane [Batch.run_inputs]
     sweeps over the box for the fuzz side, the shadow oracle's
     [demotion_error] at the base point for the corpus side). An
     [Unbounded] verdict is acceptable (vacuous) — an unsound certified
     bound is not. *)

open Cheffp_ir
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Interval = Cheffp_range.Interval
module Box = Cheffp_range.Box
module Range = Cheffp_range.Range
module Tuner = Cheffp_core.Tuner
module Oracle = Cheffp_shadow.Oracle
module B = Cheffp_benchmarks

(* ------------------------------------------------------------------ *)
(* Interval arithmetic.                                               *)

let test_interval_basics () =
  let iv = Interval.make 1.0 2.0 in
  Alcotest.(check bool) "contains endpoints" true
    (Interval.contains iv 1.0 && Interval.contains iv 2.0
    && Interval.contains iv 1.5);
  Alcotest.(check (float 0.)) "mag" 2.0 (Interval.mag iv);
  Alcotest.(check (float 0.)) "mig" 1.0 (Interval.mig iv);
  let straddle = Interval.make (-1.0) 2.0 in
  Alcotest.(check (float 0.)) "mig straddling zero" 0.0
    (Interval.mig straddle);
  Alcotest.(check bool) "make rejects NaN" true
    (try
       ignore (Interval.make Float.nan 1.0);
       false
     with Interval.Unbounded _ -> true);
  Alcotest.(check bool) "make rejects inverted" true
    (try
       ignore (Interval.make 2.0 1.0);
       false
     with Interval.Unbounded _ -> true)

let test_interval_outward () =
  (* 1e16 + 1 is not representable: the enclosure must cover both
     binary64 neighbours, i.e. be strictly wider than a point. *)
  let s = Interval.add (Interval.point 1e16) (Interval.point 1.0) in
  Alcotest.(check bool) "covers both neighbours" true
    (Interval.contains s 1e16 && Interval.contains s 1.0000000000000002e16);
  (* 0.1 + 0.2: the real sum 0.3 and the double sum both lie inside. *)
  let s = Interval.add (Interval.point 0.1) (Interval.point 0.2) in
  Alcotest.(check bool) "0.1 + 0.2" true
    (Interval.contains s 0.3 && Interval.contains s (0.1 +. 0.2))

let test_interval_unbounded () =
  Alcotest.(check bool) "div by interval containing zero" true
    (try
       ignore (Interval.div (Interval.point 1.0) (Interval.make (-1.0) 1.0));
       false
     with Interval.Unbounded _ -> true);
  Alcotest.(check bool) "overflow" true
    (try
       ignore (Interval.mul (Interval.point 1e300) (Interval.point 1e300));
       false
     with Interval.Unbounded _ -> true)

let test_interval_round () =
  (* Storage rounding is monotone, so rounding the endpoints encloses
     the rounded value set: every representable-after-round point of
     the original interval stays inside. *)
  let iv = Interval.make 1.0 2.0 in
  let r = Interval.round Fp.F16 iv in
  Alcotest.(check bool) "f16 round encloses" true
    (Interval.contains r 1.0 && Interval.contains r 2.0
    && Interval.contains r 1.5);
  let tiny = Interval.point 1e-30 in
  let r = Interval.round Fp.F16 tiny in
  (* 1e-30 underflows f16 to zero: the rounded enclosure must admit 0. *)
  Alcotest.(check bool) "f16 underflow to zero" true (Interval.contains r 0.)

let clamp lo hi v = Float.min hi (Float.max lo v)

let fuzz_interval_enclosure =
  let gen =
    QCheck.Gen.(
      pair
        (quad (float_range (-1e6) 1e6) (float_range (-1e6) 1e6)
           (float_range (-1e6) 1e6) (float_range (-1e6) 1e6))
        (pair (float_range 0. 1.) (float_range 0. 1.)))
  in
  let arb =
    QCheck.make
      ~print:(fun ((a, b, c, d), (t1, t2)) ->
        Printf.sprintf "a=%.17g b=%.17g c=%.17g d=%.17g t1=%g t2=%g" a b c d
          t1 t2)
      gen
  in
  QCheck.Test.make ~count:200 ~name:"fuzz: interval ops enclose point ops"
    arb
    (fun ((a, b, c, d), (t1, t2)) ->
      let iv1 = Interval.make (Float.min a b) (Float.max a b) in
      let iv2 = Interval.make (Float.min c d) (Float.max c d) in
      let pick iv t =
        let lo = Interval.lo iv and hi = Interval.hi iv in
        clamp lo hi (lo +. (t *. (hi -. lo)))
      in
      let p1 = pick iv1 t1 and p2 = pick iv2 t2 in
      let binop op opf =
        try Interval.contains (op iv1 iv2) (opf p1 p2)
        with Interval.Unbounded _ -> true
      in
      binop Interval.add ( +. )
      && binop Interval.sub ( -. )
      && binop Interval.mul ( *. )
      && (Interval.contains iv2 0.0
          || binop Interval.div ( /. ))
      && Interval.contains (Interval.neg iv1) (-.p1)
      && Interval.contains (Interval.abs iv1) (Float.abs p1)
      && Interval.contains (Interval.hull iv1 iv2) p1
      && Interval.contains (Interval.hull iv1 iv2) p2)

(* ------------------------------------------------------------------ *)
(* Boxes.                                                             *)

let test_box_default () =
  (* +/- 50% around the base value... *)
  let iv = Box.default_iv 2.0 in
  Alcotest.(check bool) "around 2.0" true
    (Interval.lo iv <= 1.0 && Interval.hi iv >= 3.0);
  let iv = Box.default_iv (-4.0) in
  Alcotest.(check bool) "around -4.0" true
    (Interval.lo iv <= -6.0 && Interval.hi iv >= -2.0);
  (* ...except at zero, where the relative box collapses to a point
     and the absolute [-1, 1] interval takes over (satellite of
     DESIGN.md §17). *)
  let iv = Box.default_iv 0.0 in
  Alcotest.(check bool) "absolute [-1,1] at zero" true
    (Interval.lo iv <= -1.0 && Interval.hi iv >= 1.0)

let quad_src =
  {|func quad(x: f64, y: f64, n: int): f64 {
  var t: f64 = x * x + y;
  var s: f64 = 0.0;
  for i in 0 .. n {
    s = s + t / (1.5 + itof(i));
  }
  return s;
}|}

let parse src =
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  prog

let test_box_override_and_split () =
  let prog = parse quad_src in
  let f = Ast.func_exn prog "quad" in
  let args = [ Interp.Aflt 1.0; Interp.Aflt 0.0; Interp.Aint 3 ] in
  let box = Box.of_args ~func:f ~args () in
  (match List.assoc "y" (Box.dims box) with
  | Box.Dflt iv ->
      Alcotest.(check bool) "zero-valued input gets [-1,1]" true
        (Interval.lo iv <= -1.0 && Interval.hi iv >= 1.0)
  | _ -> Alcotest.fail "y should be a float dimension");
  let box =
    Box.apply_override box (Box.override_of_string "x=2,4; y=-1,1")
  in
  (match List.assoc "x" (Box.dims box) with
  | Box.Dflt iv ->
      Alcotest.(check (float 0.)) "override lo" 2.0 (Interval.lo iv);
      Alcotest.(check (float 0.)) "override hi" 4.0 (Interval.hi iv)
  | _ -> Alcotest.fail "x should be a float dimension");
  Alcotest.(check bool) "malformed spec raises" true
    (try
       ignore (Box.override_of_string "x=oops");
       false
     with Box.Spec_error _ -> true);
  Alcotest.(check bool) "unknown name raises" true
    (try
       ignore (Box.apply_override box (Box.override_of_string "zz=1,2"));
       false
     with Box.Spec_error _ -> true);
  (* Splitting bisects a widest scalar dimension; a point box splits
     into nothing. *)
  (match Box.split box with
  | Some (l, r) ->
      let w name b =
        match List.assoc name (Box.dims b) with
        | Box.Dflt iv -> Interval.width iv
        | _ -> Alcotest.fail (name ^ " vanished")
      in
      let narrowed name = w name l < w name box && w name r < w name box in
      Alcotest.(check bool) "one dimension bisected in both halves" true
        (narrowed "x" || narrowed "y")
  | None -> Alcotest.fail "wide box must split");
  let point = Box.point_of_args ~func:f ~args () in
  Alcotest.(check bool) "point box does not split" true
    (Box.split point = None)

(* ------------------------------------------------------------------ *)
(* Fuzz soundness: certified bound vs sampled max error, 64-lane      *)
(* input sweeps over the box.                                         *)

let float_ret (r : Interp.result) =
  match r.Interp.ret with
  | Some (Builtins.F x) -> x
  | _ -> Alcotest.fail "expected float return"

(* Deterministic in-box sample points: a tiny LCG seeded from the
   program index, mapped to each scalar dimension's interval. *)
let sample_points box ~seed n =
  let state = ref (Int64.of_int ((seed * 2654435761) lor 1)) in
  let next () =
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    let bits = Int64.to_float (Int64.shift_right_logical !state 11) in
    bits /. 9007199254740992.0 (* 2^53 *)
  in
  Array.init n (fun _ ->
      List.map
        (fun (_, dim) ->
          match dim with
          | Box.Dflt iv ->
              let lo = Interval.lo iv and hi = Interval.hi iv in
              Interp.Aflt (clamp lo hi (lo +. (next () *. (hi -. lo))))
          | Box.Dfarr ivs ->
              Interp.Afarr
                (Array.map
                   (fun iv ->
                     let lo = Interval.lo iv and hi = Interval.hi iv in
                     clamp lo hi (lo +. (next () *. (hi -. lo))))
                   ivs)
          | Box.Dfixed a -> a)
        (Box.dims box))

let test_fuzz_soundness () =
  let rand = Random.State.make [| 0x5EED; 17 |] in
  let programs = QCheck.Gen.generate ~rand ~n:130 Gen_minifp.gen_program in
  let certified = ref 0 and vacuous = ref 0 in
  List.iteri
    (fun i prog ->
      let f = Ast.func_exn prog "fuzz" in
      let args = [ Interp.Aflt 1.3; Interp.Aflt 0.7; Interp.Aint 3 ] in
      let box = Box.of_args ~func:f ~args () in
      let a = Range.analyze ~prog ~func:"fuzz" ~box () in
      let candidates = Tuner.float_variables f in
      match Range.score a ~target:Fp.F32 candidates with
      | None -> incr vacuous
      | Some bound ->
          incr certified;
          Alcotest.(check bool)
            (Printf.sprintf "program %d: certified bound is finite" i)
            true
            (Float.is_finite bound && bound >= 0.);
          let config = Config.demote_all Config.double candidates Fp.F32 in
          let inputs = sample_points box ~seed:i 64 in
          let b = Batch.compile ~prog ~func:"fuzz" () in
          let cfg = Batch.run_inputs b ~config inputs in
          let dbl = Batch.run_inputs b ~config:Config.double inputs in
          let worst = ref 0. in
          Array.iteri
            (fun l rc ->
              let e =
                Float.abs (float_ret rc -. float_ret dbl.Batch.lanes.(l))
              in
              if e > !worst then worst := e)
            cfg.Batch.lanes;
          if not (!worst <= bound) then
            Alcotest.failf
              "UNSOUND on program %d: sampled max %.17g > certified %.17g\n%s"
              i !worst bound (Pp.program_to_string prog))
    programs;
  (* The property must not pass vacuously: a healthy share of random
     programs (loops and branches included) has to certify. *)
  Alcotest.(check bool)
    (Printf.sprintf "certified on a meaningful share (%d/%d)" !certified
       (!certified + !vacuous))
    true (!certified >= 20)

(* ------------------------------------------------------------------ *)
(* Corpus soundness: every certified FPCore kernel bound dominates the *)
(* shadow oracle's measured demotion error at the base point.          *)

let test_corpus_soundness () =
  let entries = B.Corpus.load () in
  Alcotest.(check bool)
    (Printf.sprintf "whole corpus loaded (%d)" (List.length entries))
    true
    (List.length entries >= 40);
  let certified = ref 0 in
  List.iter
    (fun (e : B.Corpus.entry) ->
      let core = e.B.Corpus.core in
      let prog = e.B.Corpus.prog in
      let fname =
        match prog.Ast.funcs with
        | [ f ] -> f.Ast.fname
        | _ -> Alcotest.fail "corpus entries are single-function"
      in
      let f = Ast.func_exn prog fname in
      let args = core.Cheffp_fpcore.Import.default_args in
      let box =
        Box.of_args ~ranges:core.Cheffp_fpcore.Import.ranges ~func:f ~args ()
      in
      let a = Range.analyze ~prog ~func:fname ~box () in
      let candidates = Tuner.float_variables f in
      match Range.score a ~target:Fp.F32 candidates with
      | None -> ()
      | Some bound ->
          incr certified;
          let config = Config.demote_all Config.double candidates Fp.F32 in
          let v =
            Oracle.check_estimate ~mode:Config.Source ~prog ~func:fname
              ~config args
          in
          if not (v.Oracle.demotion_error <= bound) then
            Alcotest.failf "UNSOUND on %s: measured %.17g > certified %.17g"
              e.B.Corpus.path v.Oracle.demotion_error bound)
    entries;
  Alcotest.(check bool)
    (Printf.sprintf "meaningful share certified (%d)" !certified)
    true (!certified >= 30)

let () =
  Alcotest.run "range"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "outward rounding" `Quick test_interval_outward;
          Alcotest.test_case "unbounded" `Quick test_interval_unbounded;
          Alcotest.test_case "storage rounding" `Quick test_interval_round;
          QCheck_alcotest.to_alcotest fuzz_interval_enclosure;
        ] );
      ( "box",
        [
          Alcotest.test_case "default widening" `Quick test_box_default;
          Alcotest.test_case "override and split" `Quick
            test_box_override_and_split;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "fuzzed programs, 64-lane sweeps" `Quick
            test_fuzz_soundness;
          Alcotest.test_case "FPCore corpus vs shadow oracle" `Quick
            test_corpus_soundness;
        ] );
    ]
