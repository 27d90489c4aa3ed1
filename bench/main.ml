(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation, plus the ablations DESIGN.md calls out, a
   Bechamel micro-benchmark suite (one Test.make per table), and the
   tuning hot-path perf tracker (BENCH_search.json).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1       # one experiment
     dune exec bench/main.exe -- -j 4 fig4    # sweep points on 4 domains
     ids: table1 table2 table3 table4 fig4 fig5 fig6 fig7 fig8 fig9
          ablation-inline ablation-opt ablation-precision ablation-activity
          ablation-search perf-search smoke serve-bench telemetry-bench
          batch-smoke model-smoke dist-smoke range-smoke shadow-bench bechamel
          all *)

let usage () =
  print_endline
    "usage: main.exe [-j N] [table1|table2|table3|table4|fig4|fig5|fig6|fig7|\n\
    \                 fig8|fig9|ablation-inline|ablation-opt|ablation-precision|\n\
    \                 ablation-activity|ablation-search|perf-search|smoke|\n\
    \                 serve-bench|telemetry-bench|batch-smoke|model-smoke|\n\
    \                 dist-smoke|range-smoke|shadow-bench|bechamel|all]\n\
     -j N   worker domains for parallel sweeps / candidate evaluation\n\
    \        (default: Domain.recommended_domain_count () - 1, min 1)";
  exit 1

let all ~jobs () =
  Tables.table1 ();
  Tables.table3 ();
  Tables.table4 ();
  Tables.suite ();
  let sweeps = Figures.run_all ~jobs () in
  Tables.table2 ~sweeps ();
  Ablations.run_all ();
  ignore (Perf.search_bench ~jobs:(max jobs 2) ());
  Micro.run ()

(* Gates on the BENCH_search.json "server" block: percentiles present
   and ordered, every response's outcome field-identical to a direct
   one-shot Search.tune, warm cross-request cache hit rate > 0.9, and —
   on real multi-core hosts only (a single exposed CPU time-slices the
   concurrent requests, like the parallel_speedup expectation) —
   concurrent throughput at least matching the sequential replay. *)
let serve_block_ok (sv : Perf.server_block) =
  let identical = List.for_all (fun r -> r.Perf.v_identical) sv.Perf.sv_rows in
  let percentiles_ok =
    sv.Perf.sv_p50_ms > 0. && sv.Perf.sv_p99_ms >= sv.Perf.sv_p50_ms
  in
  let warm_ok = sv.Perf.sv_warm_hit_rate > 0.9 in
  let throughput_ok =
    Domain.recommended_domain_count () < 2
    || Perf.sv_conc_rps sv >= Perf.sv_seq_rps sv
  in
  Printf.printf
    "serve gates: outcomes identical to one-shot runs: %b; p50/p99 \
     present: %b; warm cache hit rate > 0.9: %b (%.3f); concurrent >= \
     sequential throughput (multi-core hosts): %b\n"
    identical percentiles_ok warm_ok sv.Perf.sv_warm_hit_rate throughput_ok;
  identical && percentiles_ok && warm_ok && throughput_ok

(* `dune build @serve-smoke` runs this after the protocol-level smoke:
   the server bench block itself is a gate, at tiny workload sizes. *)
let serve_bench () =
  let sv =
    Perf.server_bench ~rounds:2 ~workloads:(Perf.batch_workloads ~small:true ())
      ()
  in
  Perf.print_server sv;
  if not (serve_block_ok sv) then exit 1

(* Gates on the BENCH_search.json "telemetry" block: every mid-traffic
   scrape (stats / Prometheus / traces) answered sanely with a
   non-empty exposition, and — on real multi-core hosts only (on one
   CPU the ticker thread and the measured requests time-slice each
   other, so the delta measures scheduling noise) — enabled-telemetry
   throughput within 5% of the disabled daemon. *)
let telemetry_block_ok (tl : Perf.telemetry_block) =
  let delta = Perf.telemetry_delta_pct tl in
  let scrapes_ok = tl.Perf.tl_scrapes_ok && tl.Perf.tl_prom_bytes > 0 in
  let delta_ok = Domain.recommended_domain_count () < 2 || delta <= 5.0 in
  Printf.printf
    "telemetry gates: mid-traffic scrapes sane with non-empty exposition: \
     %b; enabled within 5%% of disabled (multi-core hosts): %b (%+.2f%%)\n"
    scrapes_ok delta_ok delta;
  scrapes_ok && delta_ok

(* `dune build @telemetry-smoke` runs this after the in-process smoke:
   the telemetry bench block itself is a gate, at tiny workload sizes. *)
let telemetry_bench () =
  let tl =
    Perf.telemetry_bench ~rounds:2
      ~workloads:(Perf.batch_workloads ~small:true ())
      ()
  in
  Perf.print_telemetry tl;
  if not (telemetry_block_ok tl) then exit 1

(* Gates on the BENCH_search.json "range" block (DESIGN.md §17):
   soundness — zero kernels where a certified bound sits below the
   sampled demotion error, with the whole 48-kernel corpus analyzed and
   a meaningful share actually certifying. *)
let range_block_ok rows =
  let corpus_ok = List.length rows >= 40 in
  let unsound = List.length (Perf.range_unsound rows) in
  let certified = Perf.range_certified rows in
  Printf.printf
    "range gates: corpus fully analyzed (>= 40 kernels): %b (%d); zero \
     UNSOUND bounds: %b (%d certified)\n"
    corpus_ok (List.length rows) (unsound = 0) certified;
  corpus_ok && unsound = 0 && certified > 0

(* `dune build @range-smoke` runs this: the range bench block itself is
   a gate, at a small per-kernel sample count. *)
let range_smoke () =
  if not (range_block_ok (Perf.range_bench ~samples:12 ())) then exit 1

(* Deterministic gates on the CHEF-FP hot path. The five paper adjoints,
   generated at the `cheffp analyze` options, must carry per-variable
   attribution and range tracking as plain stores: no registry call
   statements. One attributed arclength analysis at n=2000 must
   allocate at most 0.7x the minor-heap words it took while those were
   builtin callbacks and every operand read was boxed: 3_506_187 words
   then, 1_922_191 with the stores and in-place leaf operands (OCaml
   5.1.1, x86-64). *)
let callback_minor_words = 3_506_187.

let hot_path_ok () =
  let module B = Cheffp_benchmarks in
  let module E = Cheffp_core.Estimate in
  let estimate (source, func) =
    E.estimate_error ~model:(Cheffp_core.Model.adapt ())
      ~options:{ E.default_options with track_ranges = true }
      ~prog:(Cheffp_ir.Parser.parse_program source) ~func ()
  in
  let rec registry_calls stmts =
    List.exists
      (function
        | Cheffp_ir.Ast.Call_stmt (name, _) ->
            String.starts_with ~prefix:"__chef_" name
        | Cheffp_ir.Ast.If (_, a, b) -> registry_calls a || registry_calls b
        | Cheffp_ir.Ast.For { body; _ } | Cheffp_ir.Ast.While (_, body) ->
            registry_calls body
        | _ -> false)
      stmts
  in
  let arclength = (B.Arclength.source, B.Arclength.func_name) in
  let lowered =
    List.for_all
      (fun k -> not (registry_calls (E.generated (estimate k)).Cheffp_ir.Ast.body))
      [
        arclength;
        (B.Simpsons.source, B.Simpsons.func_name);
        (B.Kmeans.source, B.Kmeans.func_name);
        (B.Hpccg.source, B.Hpccg.func_name);
        (B.Blackscholes.source B.Blackscholes.Exact, B.Blackscholes.func_name);
      ]
  in
  let est = estimate arclength in
  ignore (E.run est (B.Arclength.args ~n:2000));
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  ignore (E.run est (B.Arclength.args ~n:2000));
  let words = Gc.minor_words () -. w0 in
  let words_ok = words <= 0.7 *. callback_minor_words in
  Printf.printf
    "hot-path gates: paper adjoints free of registry calls: %b; arclength \
     n=2000 minor words <= 0.7x %.0f: %b (%.0f)\n"
    lowered callback_minor_words words_ok words;
  lowered && words_ok

(* The shadow oracle at the serve-mix search sizes, under the
   configuration each warm search chooses (arclength's set is the one
   the oracle gate below runs). *)
let shadow_inputs () =
  let module B = Cheffp_benchmarks in
  [
    ( "arclength", B.Arclength.program, B.Arclength.func_name,
      (fun () -> B.Arclength.args ~n:2000), [ "p2"; "d"; "fx"; "t2"; "h"; "x" ] );
    ( "simpsons", B.Simpsons.program, B.Simpsons.func_name,
      (fun () -> B.Simpsons.args ~a:0. ~b:Float.pi ~n:2000), [ "a"; "b"; "h" ] );
    ( "kmeans", B.Kmeans.program, B.Kmeans.func_name,
      (fun () -> B.Kmeans.args (B.Kmeans.generate ~npoints:300 ())),
      [ "attributes" ] );
  ]

let shadow_run ~builtins (_, prog, func, args, chosen) =
  let module Config = Cheffp_precision.Config in
  let config =
    Config.demote_all Config.double chosen Cheffp_precision.Fp.F32
  in
  let args = args () in
  fun () ->
    Cheffp_shadow.Shadow.run ~builtins ~config ~mode:Config.Source ~prog ~func
      (Cheffp_ir.Interp.copy_args args)

let minor_words_of f =
  ignore (f ());
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* `main.exe shadow-bench`: median wall time and minor-heap words of one
   Shadow.run per input. *)
let shadow_bench () =
  let builtins = Cheffp_ir.Builtins.create () in
  List.iter
    (fun ((name, _, _, _, _) as input) ->
      let run = shadow_run ~builtins input in
      let words = minor_words_of run in
      let times =
        Array.init 21 (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (run ());
            Unix.gettimeofday () -. t0)
      in
      Array.sort compare times;
      Printf.printf "shadow.run %-9s median %.2f ms  min %.2f ms  minor words %.0f\n"
        name (times.(10) *. 1e3) (times.(0) *. 1e3) words)
    (shadow_inputs ())

(* Deterministic gate on the shadow oracle. One Shadow.run of arclength
   n=2000 under its search's chosen configuration allocated 7_053_752
   minor-heap words while the oracle interpreted the AST (OCaml 5.1.1,
   x86-64); compiled, it must allocate at most a quarter of that, and
   its result must equal, bit for bit, what the interpreter returned. *)
let interpreted_shadow_words = 7_053_752.

let shadow_oracle_ok () =
  let arclength = List.hd (shadow_inputs ()) in
  let run = shadow_run ~builtins:(Cheffp_ir.Builtins.create ()) arclength in
  let words = minor_words_of run in
  let r = run () in
  let module S = Cheffp_shadow.Shadow in
  let m = Option.get r.S.ret in
  let same_result =
    m.S.low = 0x1.72ecac4aep+2
    && m.S.shadow.Cheffp_shadow.Dd.hi = 0x1.72ecabc63994ap+2
    && m.S.shadow.Cheffp_shadow.Dd.lo = 0x1.296a6f5feda6cp-52
    && m.S.abs_error = 0x1.094cd6cp-23
    && m.S.rel_error = 0x1.6e33fa5ebab73p-26
    && r.S.branch_hash = 0
    && r.S.divergence
       = [ ("s1", 0x1.5a4b7a1cp-20); ("fx", 0x1.54da8a2ep-20);
           ("t1", 0x1.54da8a2ep-20); ("t2", 0x1.54da8a2ep-20);
           ("d", 0x1.2fc0741ae6p-20); ("x", 0x1.8945cc4p-23);
           ("h", 0x1.2e91c7ap-35); ("p2", 0x0p+0) ]
  in
  let words_ok = words <= 0.25 *. interpreted_shadow_words in
  Printf.printf
    "shadow gates: arclength n=2000 result identical to the interpreter's: \
     %b; minor words <= 0.25x %.0f: %b (%.0f)\n"
    same_result interpreted_shadow_words words_ok words;
  same_result && words_ok

(* Tiny-size smoke pass (seconds, not minutes): exercises the sweep
   plumbing, the parallel search path and the compile cache so
   `dune build @bench-smoke` gives CI-style coverage of the harness. *)
let smoke ~jobs () =
  let hot_path = hot_path_ok () in
  let shadow_ok = shadow_oracle_ok () in
  let sweep = Figures.fig4 ~jobs ~sizes:[ 2_000; 5_000 ] () in
  ignore sweep;
  let rows, batch, model, dist, soundness, server, telemetry, fpcore, range =
    Perf.search_bench ~jobs:(max jobs 2) ~out:"BENCH_search.smoke.json"
      ~workloads:(Perf.smoke_workloads ()) ~small_soundness:true ()
  in
  let ok = List.for_all (fun r -> r.Perf.identical) rows in
  let batch_ok = List.for_all (fun r -> r.Perf.b_identical) batch in
  let hits =
    List.for_all
      (fun r -> r.Perf.cache.Cheffp_ir.Compile_cache.hits > 0)
      rows
  in
  let traced =
    List.for_all
      (fun r -> r.Perf.phases <> [] && r.Perf.pool.Perf.pu_tasks > 0)
      rows
  in
  let overhead_ok = Perf.overhead_guard ~limit_pct:2.0 rows in
  let sound = Perf.soundness_coverage soundness = 1.0 in
  let model_ok =
    List.for_all
      (fun r ->
        r.Perf.m_demoted_identical
        && r.Perf.m_hybrid_execs < r.Perf.m_measured_execs)
      model
  in
  let dist_ok = List.for_all (fun r -> r.Perf.d_identical) dist in
  let server_ok = serve_block_ok server in
  let telemetry_ok = telemetry_block_ok telemetry in
  let fpcore_ok =
    fpcore.Perf.fp_kernels >= 40 && fpcore.Perf.fp_roundtrip_exact
  in
  let range_ok = range_block_ok range in
  Printf.printf
    "smoke: outcomes identical across jobs (incl. instrumented): %b; \
     batched search outcomes identical to scalar: %b; cache hits on every \
     workload: %b; traced phases + pool metrics present: %b; \
     disabled-instrumentation overhead < 2%%: %b; estimate sound on every \
     benchmark: %b; hybrid = measured set with fewer executions: %b; \
     input-sweep samples bit-identical to scalar: %b; server block gates \
     pass: %b; telemetry block gates pass: %b; fpcore corpus >= 40 kernels \
     with exact round trips: %b; range block gates pass: %b; hot-path \
     gates pass: %b; shadow gates pass: %b\n"
    ok batch_ok hits traced overhead_ok sound model_ok dist_ok server_ok
    telemetry_ok fpcore_ok range_ok hot_path shadow_ok;
  if
    not
      (ok && batch_ok && hits && traced && overhead_ok && sound && model_ok
     && dist_ok && server_ok && telemetry_ok && fpcore_ok && range_ok
     && hot_path && shadow_ok)
  then exit 1

(* Batched-search smoke (`dune build @batch-smoke`): tiny batched
   searches must be bit-identical to their scalar counterparts, the
   sweeps must actually happen (batched_runs > 0), and the batch.lanes
   gauge must land in the exported metrics. *)
let batch_smoke () =
  let rows =
    List.map Perf.measure_batch (Perf.batch_workloads ~small:true ())
  in
  Perf.print_batch_rows rows;
  let identical = List.for_all (fun r -> r.Perf.b_identical) rows in
  let swept = List.exists (fun r -> r.Perf.b_batched_runs > 0) rows in
  let lanes_gauge =
    match
      List.assoc_opt "batch.lanes" (Cheffp_obs.Metrics.snapshot ())
    with
    | Some (Cheffp_obs.Metrics.Gauge v) -> v
    | _ -> 0.
  in
  Printf.printf
    "batch-smoke: outcomes_identical: %b; batched sweeps ran: %b; \
     batch.lanes gauge: %g\n"
    identical swept lanes_gauge;
  if not (identical && swept && lanes_gauge > 0.) then exit 1

(* Input-sweep sampling smoke (`dune build @dist-smoke`): Monte-Carlo
   sweeps on the five paper workloads must (a) beat equal-count scalar
   runs on samples/sec via SoA lane batching alone (jobs=1 — the lane
   speedup is core-count independent), (b) stay bit-identical to the
   per-sample scalar runs with every divergence accounted by the
   fallback (no silent ones — identity is the proof), and (c) make the
   p99-targeted search choose a different demotion set than single-point
   tuning on at least one workload, with the chosen configuration SOUND
   against the shadow oracle at sampled points. The pool axis
   (sweep chunks over domains) reads host_cores and is only gated on
   real multi-core hosts, matching the parallel_speedup convention. *)
let dist_smoke () =
  let host_cores = Domain.recommended_domain_count () in
  let jobs = max 2 (min 4 (host_cores - 1)) in
  let rows =
    List.map
      (Perf.measure_dist ~samples:128 ~jobs)
      (Perf.batch_workloads ~small:true ())
  in
  Perf.print_dist_rows rows;
  let identical = List.for_all (fun r -> r.Perf.d_identical) rows in
  let sweep_faster =
    List.for_all (fun r -> Perf.dist_sweep_rate r > Perf.dist_scalar_rate r) rows
  in
  let pool_ok =
    host_cores < 2
    || List.for_all
         (fun r -> Perf.dist_pool_rate r >= Perf.dist_sweep_rate r)
         rows
  in
  let sets_differ =
    List.exists (fun r -> r.Perf.d_point_demoted <> r.Perf.d_quantile_demoted) rows
  in
  let sound = List.for_all (fun r -> r.Perf.d_sound) rows in
  Printf.printf
    "dist-smoke: per-sample results bit-identical to scalar (all \
     divergences fell back, none silent): %b; input-sweep > 1x samples/sec \
     vs scalar on every workload: %b; pool >= single-domain sweep \
     (multi-core hosts): %b; quantile-targeted set differs from \
     single-point on >= 1 workload: %b; quantile configs sound vs shadow \
     oracle at sampled points: %b\n"
    identical sweep_faster pool_ok sets_differ sound;
  if host_cores < 2 then
    Printf.printf
      "(single-core host: pool-scaling expectation skipped — sweep chunks \
       time-slice one CPU; the lane speedup gate still applies)\n";
  if not (identical && sweep_faster && pool_ok && sets_differ && sound) then
    exit 1

(* Profile-guided-search smoke (`dune build @model-smoke`): on every
   tiny paper workload the hybrid strategy must choose the measured
   set with strictly fewer executions, the modelled strategy must pay
   exactly one augmented run and zero candidate executions (with the
   warm re-run served from the profile cache), and the modelled-chosen
   configuration must validate against the double-double shadow
   oracle. *)
let model_smoke () =
  let workloads = Perf.batch_workloads ~small:true () in
  let rows = List.map Perf.measure_model workloads in
  Perf.print_model_rows rows;
  let identical = List.for_all (fun r -> r.Perf.m_demoted_identical) rows in
  let fewer =
    List.for_all
      (fun r -> r.Perf.m_hybrid_execs < r.Perf.m_measured_execs)
      rows
  in
  let one_augmented =
    List.for_all
      (fun r ->
        r.Perf.m_modelled_augmented_runs = 1
        && r.Perf.m_modelled_execs = 0
        && r.Perf.m_modelled_confirmations <= 2)
      rows
  in
  let profile_hits =
    List.for_all (fun r -> r.Perf.m_profile_cache_hits > 0) rows
  in
  let sound =
    (* margin 2.0: the same headroom Tuner.tune's default budget keeps
       for what the first-order model does not see (higher-order and
       interaction terms); the adapt bound can undershoot the shadow
       measurement by a percent on bs_price. *)
    List.for_all2
      (fun (w : Perf.workload) r ->
        let v =
          Cheffp_shadow.Oracle.check_estimate ~margin:2.0 ~prog:w.Perf.prog
            ~func:w.Perf.func ~config:r.Perf.m_modelled_config w.Perf.args
        in
        v.Cheffp_shadow.Oracle.sound)
      workloads rows
  in
  Printf.printf
    "model-smoke: hybrid set = measured set: %b; hybrid executions < \
     measured: %b; modelled = 1 augmented run + <= 2 confirmations, 0 \
     candidate executions: %b; warm re-run hit the profile cache: %b; \
     modelled config sound vs shadow oracle: %b\n"
    identical fewer one_augmented profile_hits sound;
  if not (identical && fewer && one_augmented && profile_hits && sound) then
    exit 1

let () =
  Printf.printf "CHEF-FP reproduction benchmark harness\n";
  Printf.printf "(paper: Fast And Automatic Floating Point Error Analysis \
                 With CHEF-FP, IPPS 2023)\n";
  let jobs = ref (Cheffp_util.Pool.default_jobs ()) in
  let cmd = ref "all" in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | arg :: rest ->
        cmd := arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = !jobs in
  match !cmd with
  | "all" -> all ~jobs ()
  | "table1" -> Tables.table1 ()
  | "table2" -> Tables.table2 ()
  | "table3" -> Tables.table3 ()
  | "table4" -> Tables.table4 ()
  | "fig4" -> ignore (Figures.fig4 ~jobs ())
  | "fig5" -> ignore (Figures.fig5 ~jobs ())
  | "fig6" -> ignore (Figures.fig6 ~jobs ())
  | "fig7" -> ignore (Figures.fig7 ~jobs ())
  | "fig8" -> ignore (Figures.fig8 ~jobs ())
  | "fig9" -> ignore (Figures.fig9 ())
  | "ablation-inline" -> Ablations.inline ()
  | "ablation-opt" -> Ablations.opt ()
  | "ablation-precision" -> Ablations.precision ()
  | "ablation-activity" -> Ablations.activity ()
  | "ablation-search" ->
      Ablations.search ();
      ignore (Perf.search_bench ~jobs:(max jobs 2) ())
  | "perf-search" -> ignore (Perf.search_bench ~jobs:(max jobs 2) ())
  | "smoke" -> smoke ~jobs ()
  | "serve-bench" -> serve_bench ()
  | "telemetry-bench" -> telemetry_bench ()
  | "batch-smoke" -> batch_smoke ()
  | "model-smoke" -> model_smoke ()
  | "dist-smoke" -> dist_smoke ()
  | "range-smoke" -> range_smoke ()
  | "shadow-bench" -> shadow_bench ()
  | "suite" -> Tables.suite ()
  | "bechamel" -> Micro.run ()
  | _ -> usage ()
