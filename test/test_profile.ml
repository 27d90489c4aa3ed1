(* Error-atom profiles (lib/core/profile.ml) and the profile-guided
   search strategies built on them. *)

open Cheffp_ir
module B = Cheffp_benchmarks
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Profile = Cheffp_core.Profile
module Search = Cheffp_core.Search
module Metrics = Cheffp_obs.Metrics
module Oracle = Cheffp_shadow.Oracle

let eps32 = Fp.unit_roundoff Fp.F32

(* ------------------------------------------------------------------ *)
(* Scoring fold on synthetic profiles                                  *)
(* ------------------------------------------------------------------ *)

let test_of_atoms_score () =
  let p = Profile.of_atoms ~func:"f" [ ("a", 2.0); ("b", 3.0); ("c", 0.5) ] in
  Alcotest.(check (float 0.)) "total atom" 5.5 (Profile.total_atom p);
  Alcotest.(check (float 0.)) "atom" 3.0 (Profile.atom p "b");
  Alcotest.(check (float 0.)) "unknown variable scores zero" 0.
    (Profile.atom p "zzz");
  (* F64 variables contribute nothing; narrow ones eps(fmt) * atom. *)
  Alcotest.(check (float 0.)) "double config scores zero" 0.
    (Profile.score p Config.double);
  let cfg = Config.demote_all Config.double [ "a"; "c" ] Fp.F32 in
  Alcotest.(check (float 1e-25)) "mixed config is a dot product"
    (2.5 *. eps32) (Profile.score p cfg);
  Alcotest.(check (float 1e-25)) "score_vars matches score"
    (Profile.score p cfg)
    (Profile.score_vars p ~target:Fp.F32 [ "a"; "c" ]);
  Alcotest.(check (float 1e-20)) "uniform = total * eps"
    (5.5 *. eps32)
    (Profile.score p (Config.uniform Fp.F32))

let test_overflow_veto () =
  let p =
    Profile.of_atoms ~func:"f"
      ~ranges:[ ("big", (0., 3e38)); ("small", (-1., 1.)) ]
      [ ("big", 1.0); ("small", 1.0) ]
  in
  Alcotest.(check bool) "over half max_finite f32 vetoed" true
    (Profile.overflows p ~target:Fp.F32 "big");
  Alcotest.(check bool) "small range fine" false
    (Profile.overflows p ~target:Fp.F32 "small");
  Alcotest.(check bool) "f64 target fine" false
    (Profile.overflows p ~target:Fp.F64 "big")

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()) with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let test_build_cached () =
  let args = B.Arclength.args ~n:64 in
  let prog = B.Arclength.program and func = B.Arclength.func_name in
  let p1 = Profile.build_cached ~prog ~func ~args () in
  let hits0 = counter "profile.cache_hits" in
  let builds0 = counter "profile.builds" in
  let p2 = Profile.build_cached ~prog ~func ~args () in
  Alcotest.(check int) "second fetch hits" (hits0 + 1)
    (counter "profile.cache_hits");
  Alcotest.(check int) "no second build" builds0 (counter "profile.builds");
  Alcotest.(check bool) "same atoms" true
    (Profile.atoms p1 = Profile.atoms p2);
  (* Different arguments -> different profile. *)
  let p3 = Profile.build_cached ~prog ~func ~args:(B.Arclength.args ~n:128) () in
  Alcotest.(check bool) "args participate in the key" true
    (Profile.atoms p1 <> Profile.atoms p3)

(* ------------------------------------------------------------------ *)
(* Property: the profile is the taylor estimate with eps factored out  *)
(* ------------------------------------------------------------------ *)

(* For a uniform F32 demotion, score = eps32 * Σ_v A(v) must equal the
   taylor-F32 estimate's summed per-variable report on the same inputs
   (the two augmented programs differ only in where the eps
   multiplication sits, so they agree to rounding). *)
let fuzz_score_matches_taylor =
  QCheck.Test.make ~count:150
    ~name:"fuzz: uniform-F32 score = taylor-F32 estimate"
    Gen_minifp.arbitrary_case (fun (prog, (x, y)) ->
      let args = [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 4 ] in
      match
        let profile = Profile.build ~prog ~func:"fuzz" ~args () in
        let est =
          E.estimate_error ~model:(Model.taylor ~target:Fp.F32 ()) ~prog
            ~func:"fuzz" ()
        in
        let report = E.run est args in
        (profile, report)
      with
      | exception Interp.Runtime_error _ -> true
      | profile, report ->
          let score = Profile.score profile (Config.uniform Fp.F32) in
          let taylor =
            List.fold_left (fun a (_, e) -> a +. e) 0. report.E.per_variable
          in
          if not (Float.is_finite score && Float.is_finite taylor) then true
          else
            Float.abs (score -. taylor)
            <= 1e-9 *. Float.max 1e-300 (Float.max score taylor))

(* ------------------------------------------------------------------ *)
(* Strategies on the paper benchmarks                                  *)
(* ------------------------------------------------------------------ *)

(* Tiny instances of all five paper workloads (the bench harness's
   smoke sizes). *)
let workloads () =
  let bs = B.Blackscholes.generate ~n:4 () in
  let hp = B.Hpccg.generate ~nx:5 ~ny:5 ~nz:5 ~max_iter:10 () in
  [
    ( "arclength", B.Arclength.program, B.Arclength.func_name,
      B.Arclength.args ~n:2_000, 1e-6 );
    ( "simpsons", B.Simpsons.program, B.Simpsons.func_name,
      B.Simpsons.args ~a:0. ~b:Float.pi ~n:2_000, 1e-10 );
    ( "kmeans", B.Kmeans.program, B.Kmeans.func_name,
      B.Kmeans.args (B.Kmeans.generate ~npoints:300 ()), 1e-7 );
    ( "blackscholes", B.Blackscholes.program B.Blackscholes.Exact,
      B.Blackscholes.price_func, B.Blackscholes.price_args bs 0, 1e-9 );
    ( "hpccg", B.Hpccg.program, B.Hpccg.func_name, B.Hpccg.args hp, 1e-10 );
  ]

(* `Hybrid is `Measured plus the all-demoted skip: it must reproduce
   `Measured's chosen set exactly, with strictly fewer executions, at
   most the one skipped run avoided, and that count exact (hybrid
   executions + runs avoided = measured executions). Every other
   candidate runs as under `Measured, so with lane batching on the
   sweeps match too. *)
let test_hybrid_bit_identical () =
  List.iter
    (fun batch ->
      List.iter
        (fun (name, prog, func, args, threshold) ->
          let name =
            match batch with
            | Some k -> Printf.sprintf "%s (batch %d)" name k
            | None -> name
          in
          let tune strategy =
            Search.tune ~strategy ?batch ~prog ~func ~args ~threshold ()
          in
          let m = tune `Measured and h = tune `Hybrid in
          Alcotest.(check (list string))
            (name ^ ": hybrid set = measured set")
            m.Search.demoted h.Search.demoted;
          Alcotest.(check bool)
            (name ^ ": hybrid strictly cheaper")
            true
            (h.Search.executions < m.Search.executions);
          Alcotest.(check bool)
            (name ^ ": at most the all-demoted run avoided")
            true
            (h.Search.runs_avoided <= 1);
          Alcotest.(check int)
            (name ^ ": avoided count exact")
            m.Search.executions
            (h.Search.executions + h.Search.runs_avoided);
          Alcotest.(check int)
            (name ^ ": batched sweeps = measured")
            m.Search.batched_runs h.Search.batched_runs)
        (workloads ()))
    [ None; Some Batch.default_lanes ]

(* Every answer-and-cost field of the default search on the five
   workloads, pinned: point and sampled (p99 over 16 inputs drawn from
   the default box), scalar and lane-batched. A change to how
   candidates are evaluated must reproduce these bit for bit. Columns:
   workload, sampled, batched, demoted, executions, batched_runs,
   runs_avoided, then the final evaluation's config, actual_error,
   modelled_speedup and casts. *)
let pinned_outcomes =
  [
    ("arclength", false, false, [ "p2"; "d"; "fx"; "t2"; "h"; "x" ], 15, 0, 1, "default=f64 d:f32 fx:f32 h:f32 p2:f32 t2:f32 x:f32", 0x1.094cd74p-23, 0x1.b10c2cfec3e23p+0, 34002);
    ("simpsons", false, false, [ "a"; "b"; "h" ], 9, 0, 1, "default=f64 a:f32 b:f32 h:f32", 0x1.580cp-38, 0x1.ef9293ce3c13p-1, 8002);
    ("kmeans", false, false, [ "attributes" ], 9, 0, 1, "default=f64 attributes:f32", 0x0p+0, 0x1.e23b88ee23b89p-1, 6000);
    ("blackscholes", false, false, [ "d1"; "lsk" ], 18, 0, 1, "default=f64 d1:f32 lsk:f32", 0x1.d8p-39, 0x1.093568fa798ddp+0, 5);
    ("hpccg", false, false, [ "vals"; "b"; "normr"; "oldrtrans"; "beta"; "alpha"; "rtrans" ], 24, 0, 1, "default=f64 alpha:f32 b:f32 beta:f32 normr:f32 oldrtrans:f32 rtrans:f32 vals:f32", 0x1.cp-40, 0x1.c362efc05057p-1, 32938);
    ("arclength", false, true, [ "p2"; "d"; "fx"; "t2"; "h"; "x" ], 15, 2, 1, "default=f64 d:f32 fx:f32 h:f32 p2:f32 t2:f32 x:f32", 0x1.094cd74p-23, 0x1.b10c2cfec3e23p+0, 34002);
    ("simpsons", false, true, [ "a"; "b"; "h" ], 9, 2, 1, "default=f64 a:f32 b:f32 h:f32", 0x1.580cp-38, 0x1.ef9293ce3c13p-1, 8002);
    ("kmeans", false, true, [ "attributes" ], 9, 1, 1, "default=f64 attributes:f32", 0x0p+0, 0x1.e23b88ee23b89p-1, 6000);
    ("blackscholes", false, true, [ "d1"; "lsk" ], 18, 3, 1, "default=f64 d1:f32 lsk:f32", 0x1.d8p-39, 0x1.093568fa798ddp+0, 5);
    ("hpccg", false, true, [ "vals"; "b"; "normr"; "oldrtrans"; "beta"; "alpha"; "rtrans" ], 24, 4, 1, "default=f64 alpha:f32 b:f32 beta:f32 normr:f32 oldrtrans:f32 rtrans:f32 vals:f32", 0x1.cp-40, 0x1.c362efc05057p-1, 32938);
    ("arclength", true, false, [ "p2"; "d"; "fx"; "t2"; "h"; "x" ], 15, 30, 1, "default=f64 d:f32 fx:f32 h:f32 p2:f32 t2:f32 x:f32", 0x1.094cd74p-23, 0x1.b10c2cfec3e23p+0, 34002);
    ("simpsons", true, false, [  ], 6, 12, 1, "default=f64", 0x0p+0, 0x1p+0, 0);
    ("kmeans", true, false, [  ], 8, 16, 1, "default=f64", 0x0p+0, 0x1p+0, 0);
    ("blackscholes", true, false, [ "d1"; "lsk" ], 18, 36, 1, "default=f64 d1:f32 lsk:f32", 0x1.d8p-39, 0x1.093568fa798ddp+0, 5);
    ("hpccg", true, false, [ "normr" ], 15, 30, 1, "default=f64 normr:f32", 0x0p+0, 0x1p+0, 0);
    ("arclength", true, true, [ "p2"; "d"; "fx"; "t2"; "h"; "x" ], 15, 30, 1, "default=f64 d:f32 fx:f32 h:f32 p2:f32 t2:f32 x:f32", 0x1.094cd74p-23, 0x1.b10c2cfec3e23p+0, 34002);
    ("simpsons", true, true, [  ], 6, 12, 1, "default=f64", 0x0p+0, 0x1p+0, 0);
    ("kmeans", true, true, [  ], 8, 16, 1, "default=f64", 0x0p+0, 0x1p+0, 0);
    ("blackscholes", true, true, [ "d1"; "lsk" ], 18, 36, 1, "default=f64 d1:f32 lsk:f32", 0x1.d8p-39, 0x1.093568fa798ddp+0, 5);
    ("hpccg", true, true, [ "normr" ], 15, 30, 1, "default=f64 normr:f32", 0x0p+0, 0x1p+0, 0);
  ]

let test_search_outcomes_pinned () =
  List.iter
    (fun (sampled, batch) ->
      List.iter
        (fun (name, prog, func, args, threshold) ->
          let sampling =
            if sampled then
              let plan =
                Cheffp_core.Sampling.plan ~func:(Ast.func_exn prog func) ~args
                  ()
              in
              Some
                {
                  Search.inputs =
                    Cheffp_core.Sampling.draw_many plan ~seed:42L 16;
                  quantile = 0.99;
                }
            else None
          in
          let o = Search.tune ?batch ?sampling ~prog ~func ~args ~threshold () in
          let ( _,
                _,
                _,
                demoted,
                executions,
                batched_runs,
                runs_avoided,
                config,
                actual_error,
                modelled_speedup,
                casts ) =
            List.find
              (fun (n, s, b, _, _, _, _, _, _, _, _) ->
                n = name && s = sampled && b = (batch <> None))
              pinned_outcomes
          in
          let label f =
            Printf.sprintf "%s (%s, %s): %s" name
              (if sampled then "sampled" else "point")
              (if batch = None then "scalar" else "batched")
              f
          in
          let ev = o.Search.evaluation in
          Alcotest.(check (list string)) (label "demoted") demoted
            o.Search.demoted;
          Alcotest.(check int) (label "executions") executions
            o.Search.executions;
          Alcotest.(check int) (label "batched_runs") batched_runs
            o.Search.batched_runs;
          Alcotest.(check int) (label "runs_avoided") runs_avoided
            o.Search.runs_avoided;
          Alcotest.(check string) (label "config") config
            (Config.to_string ev.Cheffp_core.Tuner.config);
          Alcotest.(check (float 0.)) (label "actual_error") actual_error
            ev.Cheffp_core.Tuner.actual_error;
          Alcotest.(check (float 0.)) (label "modelled_speedup")
            modelled_speedup ev.Cheffp_core.Tuner.modelled_speedup;
          Alcotest.(check int) (label "casts") casts ev.Cheffp_core.Tuner.casts)
        (workloads ()))
    [
      (false, None);
      (false, Some Batch.default_lanes);
      (true, None);
      (true, Some Batch.default_lanes);
    ]

(* `Modelled executes no candidates, and its chosen configuration both
   meets the threshold in the measured evaluation and validates against
   the double-double shadow oracle (margin 2: the tuner's documented
   headroom for what the first-order model does not see). *)
let test_modelled_sound () =
  List.iter
    (fun (name, prog, func, args, threshold) ->
      let o =
        Search.tune ~strategy:`Modelled ~prog ~func ~args ~threshold ()
      in
      Alcotest.(check int) (name ^ ": zero candidate executions") 0
        o.Search.executions;
      Alcotest.(check bool)
        (name ^ ": evaluation meets threshold")
        true
        (o.Search.evaluation.Cheffp_core.Tuner.actual_error <= threshold);
      let config =
        Config.demote_all Config.double o.Search.demoted Fp.F32
      in
      let v = Oracle.check_estimate ~margin:2.0 ~prog ~func ~config args in
      Alcotest.(check bool) (name ^ ": shadow oracle sound") true
        v.Oracle.sound)
    (workloads ())

let () =
  Alcotest.run "profile"
    [
      ( "unit",
        [
          Alcotest.test_case "of_atoms scoring" `Quick test_of_atoms_score;
          Alcotest.test_case "overflow veto" `Quick test_overflow_veto;
          Alcotest.test_case "build_cached" `Quick test_build_cached;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "hybrid bit-identical to measured" `Quick
            test_hybrid_bit_identical;
          Alcotest.test_case "modelled sound on the paper benchmarks" `Quick
            test_modelled_sound;
          Alcotest.test_case "search outcomes pinned" `Quick
            test_search_outcomes_pinned;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest fuzz_score_matches_taylor ] );
    ]
