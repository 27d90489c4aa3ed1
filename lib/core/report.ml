module Table = Cheffp_util.Table
module Meter = Cheffp_util.Meter

let buf_add = Buffer.add_string

let estimate (r : Estimate.report) =
  let b = Buffer.create 512 in
  buf_add b (Printf.sprintf "estimated FP error: %.6e\n" r.Estimate.total_error);
  if r.Estimate.gradients <> [] then begin
    buf_add b "gradients:\n";
    List.iter
      (fun (p, d) -> buf_add b (Printf.sprintf "  d/d%-10s %.10g\n" p d))
      r.Estimate.gradients
  end;
  if r.Estimate.per_variable <> [] then begin
    buf_add b "per-variable error attribution:\n";
    buf_add b
      (Table.render
         ~header:[ "variable"; "error" ]
         (List.map
            (fun (v, e) -> [ v; Table.fe e ])
            r.Estimate.per_variable));
    buf_add b "\n"
  end;
  if r.Estimate.ranges <> [] then begin
    buf_add b "observed value ranges:\n";
    buf_add b
      (Table.render
         ~header:[ "variable"; "min"; "max" ]
         (List.map
            (fun (v, (lo, hi)) -> [ v; Table.fe lo; Table.fe hi ])
            r.Estimate.ranges));
    buf_add b "\n"
  end;
  buf_add b
    (Printf.sprintf "analysis memory: %s (value stacks peak %s)\n"
       (Meter.bytes_pp r.Estimate.analysis_bytes)
       (Meter.bytes_pp r.Estimate.stack_peak_bytes));
  Buffer.contents b

let sampled ~plan (s : Quantile.summary) =
  let b = Buffer.create 256 in
  buf_add b
    (Printf.sprintf "error quantiles over %d sampled inputs:\n"
       s.Quantile.count);
  List.iter
    (fun (name, d) ->
      if d <> "fixed" then buf_add b (Printf.sprintf "  %-12s ~ %s\n" name d))
    plan;
  buf_add b
    (Printf.sprintf
       "  p50 %.6e   p95 %.6e   p99 %.6e   max %.6e   mean %.6e\n"
       s.Quantile.p50 s.Quantile.p95 s.Quantile.p99 s.Quantile.max
       s.Quantile.mean);
  Buffer.contents b

let tuning (o : Tuner.outcome) =
  let b = Buffer.create 512 in
  buf_add b "per-variable contributions (ascending):\n";
  List.iter
    (fun (v, e) ->
      buf_add b
        (Printf.sprintf "  %-12s %.6e%s\n" v e
           (if List.mem v o.Tuner.demoted then "  -> demote" else "")))
    o.Tuner.contributions;
  if o.Tuner.vetoed <> [] then
    buf_add b
      (Printf.sprintf "vetoed (range would overflow the target): %s\n"
         (String.concat ", " o.Tuner.vetoed));
  let ev = o.Tuner.evaluation in
  buf_add b
    (Printf.sprintf "configuration: %s\n"
       (Cheffp_precision.Config.to_string ev.Tuner.config));
  buf_add b (Printf.sprintf "estimated error:  %.6e\n" o.Tuner.estimated_error);
  buf_add b
    (Printf.sprintf "actual error:     %.6e (threshold %.1e)\n"
       ev.Tuner.actual_error o.Tuner.threshold);
  buf_add b
    (Printf.sprintf "modelled speedup: %.2fx, implicit casts: %d\n"
       ev.Tuner.modelled_speedup ev.Tuner.casts);
  Buffer.contents b

let search (o : Search.outcome) =
  let ev = o.Search.evaluation in
  Printf.sprintf
    "search-based tuning (%s): %d program executions%s%s\n\
     demoted: %s\n\
     actual error:     %.6e (threshold %.1e)\n\
     modelled error:   %.6e (CHEF-FP, 1 augmented execution)\n%s\
     modelled speedup: %.2fx\n"
    (Search.strategy_name o.Search.strategy)
    o.Search.executions
    (if o.Search.batched_runs > 0 then
       Printf.sprintf " (program-runs-equivalent; %d batched sweeps)"
         o.Search.batched_runs
     else "")
    (if o.Search.runs_avoided > 0 then
       Printf.sprintf ", %d avoided by the error-atom profile"
         o.Search.runs_avoided
     else "")
    (match o.Search.demoted with [] -> "(nothing)" | l -> String.concat ", " l)
    ev.Tuner.actual_error o.Search.threshold o.Search.modelled_error
    (String.concat ""
       [
         (match o.Search.measured_error with
         | Some e ->
             Printf.sprintf "measured error:   %.6e (shadow double-double)\n" e
         | None -> "");
         (if o.Search.samples > 0 then
            Printf.sprintf
              "candidates judged at the target quantile over %d sampled \
               inputs\n"
              o.Search.samples
          else "");
       ])
    ev.Tuner.modelled_speedup
