(* Ablation studies for the design choices DESIGN.md calls out. *)

module B = Cheffp_benchmarks
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Meter = Cheffp_util.Meter
module Table = Cheffp_util.Table
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

(* Inlined AssignError expressions (CHEF-FP) vs calling back into a
   host-language error function at run time for every assignment (the
   paper's argument for why source-level injection wins: the inlined
   expression is optimized and compiled with the adjoint). *)
let inline () =
  let n = 1_000_000 in
  let args = B.Arclength.args ~n in
  let time_est model =
    let est =
      E.estimate_error ~model
        ~options:{ E.default_options with E.per_variable = false }
        ~prog:B.Arclength.program ~func:B.Arclength.func_name ()
    in
    Gc.compact ();
    (* best of three runs to shed warm-up and GC noise *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let _, s = Meter.time (fun () -> E.run est args) in
      if s < !best then best := s
    done;
    !best
  in
  let inlined = time_est (Model.adapt ()) in
  let callback =
    time_est
      (Model.external_ ~name:"cb" (fun ~adj ~value ~var:_ ->
           adj *. (value -. Fp.round Fp.F32 value)))
  in
  print_endline "\n== Ablation: inlined error expressions vs runtime callbacks ==";
  Table.print
    ~header:[ "error-code strategy"; "analysis time"; "relative" ]
    [
      [ "inlined (CHEF-FP)"; Printf.sprintf "%.3f s" inlined; "1.00x" ];
      [
        "runtime callback";
        Printf.sprintf "%.3f s" callback;
        Printf.sprintf "%.2fx" (callback /. inlined);
      ];
    ]

(* The optimizer on the generated adjoint, the paper's claim that the
   inlined error code is optimized together with the adjoint (§III).
   The five paper kernels at the perfbench sizes under the `cheffp
   analyze` options (adapt model, attribution and ranges on): median
   analysis time of [reps] alternating optimizer-on/off runs, each on
   a collected heap, next to the minor-heap words and value-stack peak
   of one run and the median build (AD, optimizer, compiler) time. *)
let opt () =
  let reps = 11 in
  let seed = 1L in
  let kernels =
    [
      ("arclength", B.Arclength.program, B.Arclength.func_name, B.Arclength.args ~n:30_000);
      ( "simpsons", B.Simpsons.program, B.Simpsons.func_name,
        B.Simpsons.args ~a:0. ~b:Float.pi ~n:100_000 );
      ( "kmeans", B.Kmeans.program, B.Kmeans.func_name,
        B.Kmeans.args (B.Kmeans.generate ~seed ~npoints:10_000 ()) );
      ( "hpccg", B.Hpccg.program, B.Hpccg.func_name,
        B.Hpccg.args (B.Hpccg.generate ~nx:20 ~ny:30 ~nz:4 ~max_iter:15 ()) );
      ( "blackscholes", B.Blackscholes.program B.Blackscholes.Exact,
        B.Blackscholes.func_name,
        B.Blackscholes.args (B.Blackscholes.generate ~seed ~n:10_000 ()) );
    ]
  in
  let options = { E.default_options with E.track_ranges = true } in
  let median l = Cheffp_util.Stats.median (Array.of_list l) in
  let ms s = Printf.sprintf "%.1f ms" (1000. *. s) in
  let rows =
    List.map
      (fun (name, prog, func, args) ->
        let build optimize () =
          E.estimate_error ~model:(Model.adapt ()) ~options:{ options with E.optimize }
            ~prog ~func ()
        in
        let build_s optimize =
          median (List.init reps (fun _ -> snd (Meter.time (build optimize))))
        in
        let on = build true () and off = build false () in
        let timed est =
          let a = Cheffp_ir.Interp.copy_args args in
          Gc.full_major ();
          snd (Meter.time (fun () -> E.run est a))
        in
        let times = List.init reps (fun _ -> (timed on, timed off)) in
        let one est =
          let a = Cheffp_ir.Interp.copy_args args in
          Gc.full_major ();
          let w0 = Gc.minor_words () in
          let r = E.run est a in
          (r, Gc.minor_words () -. w0)
        in
        let r_on, words_on = one on and r_off, words_off = one off in
        let t_on = median (List.map fst times) and t_off = median (List.map snd times) in
        [
          name; ms t_on; ms t_off; Printf.sprintf "%.2fx" (t_off /. t_on);
          Printf.sprintf "%.2fM" (words_on /. 1e6);
          Printf.sprintf "%.2fM" (words_off /. 1e6);
          string_of_int r_on.E.stack_peak_bytes;
          string_of_int r_off.E.stack_peak_bytes;
          ms (build_s true); ms (build_s false);
          (if Int64.equal (Int64.bits_of_float r_on.E.total_error)
                (Int64.bits_of_float r_off.E.total_error)
           then "yes" else "NO");
        ])
      kernels
  in
  print_endline "\n== Ablation: optimizer on the generated adjoint (analyze options) ==";
  Printf.printf "median of %d alternating runs per setting\n" reps;
  Table.print
    ~header:
      [ "kernel"; "on"; "off"; "off/on"; "words on"; "words off"; "stack on";
        "stack off"; "build on"; "build off"; "same total" ]
    rows

(* Source vs extended intermediate rounding (paper SS V-B recommends
   "source"): same tuned configuration, different rounding semantics. *)
let precision () =
  let n = 100_000 in
  let args = B.Arclength.args ~n in
  let outcome mode =
    Cheffp_core.Tuner.tune ~mode ~prog:B.Arclength.program
      ~func:B.Arclength.func_name ~args ~threshold:1e-5 ()
  in
  let src = outcome Config.Source in
  let ext = outcome Config.Extended in
  print_endline "\n== Ablation: intermediate rounding mode (paper SS V-B) ==";
  Table.print
    ~header:[ "rounding mode"; "actual error"; "modelled speedup"; "casts" ]
    (List.map
       (fun (label, (o : Cheffp_core.Tuner.outcome)) ->
         let ev = o.Cheffp_core.Tuner.evaluation in
         [
           label;
           Table.fe ev.Cheffp_core.Tuner.actual_error;
           Table.ff ev.Cheffp_core.Tuner.modelled_speedup;
           string_of_int ev.Cheffp_core.Tuner.casts;
         ])
       [ ("source (per-op)", src); ("extended (store-only)", ext) ])

(* Activity analysis: identical results, less adjoint work. *)
let activity () =
  let w = B.Kmeans.generate ~npoints:30_000 () in
  let args = B.Kmeans.args w in
  let run use_activity =
    let est =
      E.estimate_error
        ~model:(Model.adapt ())
        ~options:{ E.default_options with E.use_activity = use_activity }
        ~prog:B.Kmeans.program ~func:B.Kmeans.func_name ()
    in
    Gc.compact ();
    Meter.time (fun () -> E.run est args)
  in
  let r_off, t_off = run false in
  let r_on, t_on = run true in
  print_endline "\n== Ablation: activity analysis ==";
  Table.print
    ~header:[ "activity analysis"; "total error"; "analysis time" ]
    [
      [ "off"; Table.fe r_off.E.total_error; Printf.sprintf "%.3f s" t_off ];
      [ "on"; Table.fe r_on.E.total_error; Printf.sprintf "%.3f s" t_on ];
    ];
  Printf.printf "estimates identical: %b\n"
    (r_off.E.total_error = r_on.E.total_error)

(* AD-guided tuning vs Precimonious-style search: the paper's SS I claim
   that search-based approaches need many expensive program runs. *)
let search () =
  let cases =
    [
      ( "arclength",
        B.Arclength.program,
        B.Arclength.func_name,
        B.Arclength.args ~n:20_000,
        1e-5 );
      ( "simpsons",
        B.Simpsons.program,
        B.Simpsons.func_name,
        B.Simpsons.args ~a:0. ~b:Float.pi ~n:20_000,
        1e-6 );
    ]
  in
  print_endline "\n== Ablation: AD-guided tuning vs search-based tuning ==";
  Table.print
    ~header:
      [ "benchmark"; "method"; "program runs"; "demoted"; "actual error";
        "speedup"; "tuning time" ]
    (List.concat_map
       (fun (name, prog, func, args, threshold) ->
         Gc.compact ();
         let (ad, ad_s) =
           Meter.time (fun () ->
               Cheffp_core.Tuner.tune ~prog ~func ~args ~threshold ())
         in
         Gc.compact ();
         (* Pinned to `Measured: this ablation quantifies the paper's
            §I cost claim about execution-validated search, so the
            profile-guided pruning must stay out of the comparison. *)
         let (srch, s_s) =
           Meter.time (fun () ->
               Cheffp_core.Search.tune ~strategy:`Measured ~prog ~func ~args
                 ~threshold ())
         in
         [
           [
             name; "CHEF-FP (AD)"; "2";
             string_of_int (List.length ad.Cheffp_core.Tuner.demoted);
             Table.fe ad.Cheffp_core.Tuner.evaluation.Cheffp_core.Tuner.actual_error;
             Table.ff ad.Cheffp_core.Tuner.evaluation.Cheffp_core.Tuner.modelled_speedup;
             Printf.sprintf "%.3f s" ad_s;
           ];
           [
             ""; "search (Precimonious-style)";
             string_of_int srch.Cheffp_core.Search.executions;
             string_of_int (List.length srch.Cheffp_core.Search.demoted);
             Table.fe srch.Cheffp_core.Search.evaluation.Cheffp_core.Tuner.actual_error;
             Table.ff srch.Cheffp_core.Search.evaluation.Cheffp_core.Tuner.modelled_speedup;
             Printf.sprintf "%.3f s" s_s;
           ];
         ])
       cases)

let run_all () =
  inline ();
  opt ();
  precision ();
  activity ();
  search ()
