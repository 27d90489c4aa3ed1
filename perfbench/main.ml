(* Benchmark program: `main.exe --workload W --seed N --seconds S
   --trace 0|1 [--cheffp PATH]`, run from the repository root.

   --trace 0 measures the end-to-end metrics of workload W with tracing
   off. --trace 1 records spans around every public call of the layer
   ledgers (paper kernels, FPCore corpus front end, cold search, served
   requests) for S seconds and reports per-layer self times, exact
   counts and what the tracing cost. Human-readable lines go first; the
   last line is one JSON object with every metric measured.
   perfbench/run.py builds this program and keeps the metrics
   BENCHMARK.json declares. *)

let out_dir = ".perfbench"

(* A latency figure in ms, with the readable line that says how it was
   taken. *)
type latency = { ms : float; how : string }

(* The generic end-to-end metrics, the same names on every workload;
   [names] are the workload's own names for ops_per_s, op_ms_p50 and
   op_ms_tail, used in the readable lines. [ops_per_pass] operations
   make one pass. *)
let report_e2e ~workload ~ops ~names:(pass_name, rate_name, p50_name, tail_name)
    ~ops_per_pass ~setup_s ~pass_s ~(p50 : latency) ~(tail : latency) ~rss_mb =
  let n_pass = List.length pass_s and n_setup = List.length setup_s in
  let n_op = ops_per_pass * n_pass in
  let rate = float_of_int ops_per_pass /. Stat.median pass_s in
  Out.metric ~n:n_setup "setup_s" "s" (Stat.median setup_s);
  Out.metric ~n:n_pass "ops_per_s" "1/s" rate;
  Out.metric ~n:n_op "op_ms_p50" "ms" p50.ms;
  Out.metric ~n:n_op "op_ms_tail" "ms" tail.ms;
  Out.metric "max_rss_mb" "MB" rss_mb;
  let p = Printf.printf in
  p "%s: %d %s in %d passes\n" workload n_op ops n_pass;
  p "  %-20s %.4f s   (setup_s, median of %d set-ups)\n" "setup_s" (Stat.median setup_s) n_setup;
  p "  %-20s %.4f s   (median of %d passes)\n" pass_name (Stat.median pass_s) n_pass;
  p "  %-20s %.2f 1/s (ops_per_s, %d %s per pass / median pass)\n" rate_name rate
    ops_per_pass ops;
  p "  %-20s %.3f ms  (op_ms_p50, %s)\n" p50_name p50.ms p50.how;
  p "  %-20s %.3f ms  (op_ms_tail, %s)\n" tail_name tail.ms tail.how;
  p "  %-20s %.1f MB\n" "max_rss_mb" rss_mb;
  p "  pass quartiles       min %.4f  p25 %.4f  p50 %.4f  p75 %.4f  max %.4f\n"
    (Stat.quantile pass_s 0.) (Stat.quantile pass_s 0.25) (Stat.median pass_s)
    (Stat.quantile pass_s 0.75) (Stat.quantile pass_s 1.)

(* Set-up is repeated and its median reported: one set-up takes about
   10 ms, which one stall of a shared host can double. *)
let setup_reps = 31

(* ---- end-to-end runs (tracing off) ---- *)

(* The five kernels differ in cost, so a percentile of the pooled
   analysis times would follow whichever kernel ranks there. The p50 is
   the geometric mean of the kernels' median times, the tail the largest
   per-kernel p90. *)
let paper_e2e ~seed ~seconds =
  let ks, setup_s = Paper.setup ~seed ~reps:setup_reps in
  Paper.check_against_interp ks;
  let r = Paper.run_loop ~seconds ks in
  let ms = List.map (fun (k, xs) -> (k, List.map (fun s -> s *. 1e3) xs)) r.Paper.op_s in
  let n_each = List.length r.Paper.pass_s in
  let p50 =
    {
      ms = Stat.geomean (List.map (fun (_, xs) -> Stat.median xs) ms);
      how =
        Printf.sprintf "geomean of %d kernels' median analysis times, %d samples each"
          (List.length ms) n_each;
    }
  in
  let tail =
    let p90 (_, xs) = Stat.quantile xs 0.9 in
    let k, xs = List.hd (List.sort (fun a b -> compare (p90 b) (p90 a)) ms) in
    {
      ms = Stat.quantile xs 0.9;
      how =
        Printf.sprintf "largest per-kernel p90: %s, %d samples, %d beyond" k n_each
          (Stat.beyond xs 0.9);
    }
  in
  report_e2e ~workload:"paper-analysis" ~ops:"analyses"
    ~names:("analysis_s", "analyses_per_s", "analysis_ms_p50", "analysis_ms_p90")
    ~ops_per_pass:(List.length ks) ~setup_s ~pass_s:r.Paper.pass_s ~p50 ~tail
    ~rss_mb:(Stat.peak_rss_mb (Unix.getpid ()));
  Printf.printf "  %-20s %d bytes (exact, every pass)\n" "analysis_peak_bytes"
    (Hashtbl.find Out.exact_seen "core.estimate.analysis_peak_bytes")

(* The daemon lives for the block; it is killed if the block raises. *)
let with_daemon ~cheffp ~seed ~reps f =
  let (ts, d), setup_s = Serve_mix.setup ~cheffp ~seed ~reps in
  Serve_mix.guard d (fun () ->
      let expect = Serve_mix.expectations ts in
      let r = f d ts expect setup_s in
      Serve_mix.stop d;
      r)

let serve_e2e ~cheffp ~seed ~seconds =
  with_daemon ~cheffp ~seed ~reps:setup_reps (fun d ts expect setup_s ->
      let r = Serve_mix.run_loop ~seconds ~seed d ts expect in
      let ms = List.map (fun s -> s.Serve_mix.rtt_s *. 1e3) r.Serve_mix.samples in
      let n = List.length ms in
      report_e2e ~workload:"serve-mix" ~ops:"requests"
        ~names:("round_s", "serve_rps", "serve_ms_p50", "serve_ms_p99")
        ~ops_per_pass:(List.length ts) ~setup_s ~pass_s:r.Serve_mix.pass_s
        ~p50:{ ms = Stat.median ms; how = Printf.sprintf "median round trip of %d" n }
        ~tail:
          {
            ms = Stat.quantile ms 0.99;
            how = Printf.sprintf "p99 round trip of %d, %d beyond" n (Stat.beyond ms 0.99);
          }
        ~rss_mb:(Stat.peak_rss_mb d.Serve_mix.pid))

(* ---- traced run ---- *)

(* Every traced run is the same, whichever workload it names, so each
   per-layer metric has one population. A round is the paper-kernel
   ledger, the corpus front end, the cold-search ledger and five traced
   serve-mix rounds against a fresh daemon; rounds repeat until
   [seconds] have gone. The tracing overhead is what the spans recorded
   cost: the calibrated cost of one span times their number. *)
let traced ~workload ~cheffp ~seed ~seconds =
  Span.enabled := true;
  let t0 = Stat.now () in
  let rec rounds k samples =
    let kernels = Paper.ledger ~seed ~reps:3 in
    Serve_mix.corpus_front_end ~reps:3;
    let searches = Search_ledger.ledger () in
    let samples =
      with_daemon ~cheffp ~seed ~reps:1 (fun d ts expect _ ->
          (Serve_mix.run_loop ~seconds:0. ~min_passes:5 ~seed d ts expect).Serve_mix.samples)
      @ samples
    in
    if Stat.now () -. t0 < seconds then rounds (k + 1) samples
    else (k, kernels, searches, samples)
  in
  let n_rounds, kernels, searches, samples = rounds 1 [] in
  let traced_s = Stat.now () -. t0 in
  Span.enabled := false;
  let tbl = Span.self_times () in
  List.iter (Paper.report_front_end tbl) (kernels @ [ "corpus" ]);
  Paper.report_execution tbl kernels;
  Search_ledger.report_ledger tbl searches;
  Serve_mix.report_server samples;
  let n_spans = Span.count () in
  let per_span = Span.cost () in
  let overhead = per_span *. float_of_int n_spans in
  Out.metric ~n:n_spans "perfbench.trace_overhead_s" "s" overhead;
  Printf.printf
    "%s: ledger rounds %d, %.1f s; tracing overhead %.5f s (%d spans at %.0f ns, %.3f%% of the run)\n"
    workload n_rounds traced_s overhead n_spans (per_span *. 1e9)
    (100. *. overhead /. traced_s);
  let path = Printf.sprintf "%s/spans-%s-%d.jsonl" out_dir workload seed in
  Span.write path;
  Printf.printf "%s: %d spans written to %s\n" workload n_spans path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cheffp = ref "_build/default/bin/cheffp.exe" in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 [--cheffp PATH]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W paper-analysis|serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--cheffp", Arg.Set_string cheffp, "PATH cheffp executable serve-mix starts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "paper-analysis"; "serve-mix" ]) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let workload = !workload and seed = !seed and seconds = !seconds in
  Printf.printf "perfbench %s seed %d, %g s\n" workload seed seconds;
  (match (!trace, workload) with
  | 0, "paper-analysis" -> paper_e2e ~seed ~seconds
  | 0, _ -> serve_e2e ~cheffp:!cheffp ~seed ~seconds
  | _ -> traced ~workload ~cheffp:!cheffp ~seed ~seconds);
  Printf.printf "  failed_ratio         %g (%d failed of %d attempted)\n"
    (float_of_int !Out.failed /. float_of_int (max 1 !Out.attempted))
    !Out.failed !Out.attempted;
  Out.print_result ~workload ~seed ~trace:(!trace = 1)
