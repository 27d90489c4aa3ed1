open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Pool = Cheffp_util.Pool
module Trace = Cheffp_obs.Trace
module Metrics = Cheffp_obs.Metrics

type strategy = [ `Measured | `Modelled | `Hybrid ]

let strategy_name = function
  | `Measured -> "measured"
  | `Modelled -> "modelled"
  | `Hybrid -> "hybrid"

let strategy_of_string = function
  | "measured" -> Some `Measured
  | "modelled" -> Some `Modelled
  | "hybrid" -> Some `Hybrid
  | _ -> None

type outcome = {
  demoted : string list;
  executions : int;
  batched_runs : int;
  runs_avoided : int;
  strategy : strategy;
  evaluation : Tuner.evaluation;
  modelled_error : float;
  measured_error : float option;
  threshold : float;
  samples : int;
}

type sampling = { inputs : Interp.arg list array; quantile : float }

let runs_avoided_c = Metrics.counter "search.runs_avoided"

let tune ?(target = Fp.F32) ?mode ?builtins ?(jobs = 1) ?batch ?sampling
    ?measure ?(strategy = `Hybrid) ?(prune_margin = 64.) ~prog ~func
    ~args ~threshold () =
  if prune_margin < 1. then
    invalid_arg "Search.tune: prune_margin must be >= 1";
  (match sampling with
  | Some s ->
      if Array.length s.inputs = 0 then
        invalid_arg "Search.tune: sampling needs at least one input vector";
      if s.quantile < 0. || s.quantile > 1. then
        invalid_arg "Search.tune: sampling quantile outside [0, 1]"
  | None -> ());
  Trace.with_span "search.tune" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "func" (Trace.Str func);
    Trace.add_attr "threshold" (Trace.Float threshold);
    Trace.add_attr "jobs" (Trace.Int jobs);
    Trace.add_attr "strategy" (Trace.Str (strategy_name strategy));
    (match sampling with
    | Some s ->
        Trace.add_attr "samples" (Trace.Int (Array.length s.inputs));
        Trace.add_attr "quantile" (Trace.Float s.quantile)
    | None -> ());
    match batch with
    | Some lanes -> Trace.add_attr "batch" (Trace.Int lanes)
    | None -> ()
  end;
  (* One gradient-augmented run (memoized across tuning sessions) yields
     every variable's precision-independent error atom; every strategy
     uses it — [`Modelled]/[`Hybrid] to score candidates without
     executing them, and the final [modelled_error] cross-check as a dot
     product instead of a fresh analysis. Not counted in [executions]:
     it is the analysis the search baseline is compared against. *)
  let profile = Profile.build_cached ?builtins ~prog ~func ~args () in
  let executions = Atomic.make 0 in
  let batched_runs = Atomic.make 0 in
  let avoided = Atomic.make 0 in
  let skip n =
    ignore (Atomic.fetch_and_add avoided n);
    Metrics.add runs_avoided_c n
  in
  let run config =
    Atomic.incr executions;
    (* Tuner's metered run, so the cache key space is shared with
       Tuner.evaluate: the reference and the finally chosen
       configuration compile once across the whole tuning run. *)
    let value, _, _ = Tuner.run ?builtins ?mode ~prog ~func ~args config in
    value
  in
  let candidates = Tuner.float_variables (Ast.func_exn prog func) in
  let chosen =
    match strategy with
    | `Modelled ->
        (* Pure fast path: zero candidate executions. Greedy in
           ascending-atom order under half the threshold — the same
           factor-2 headroom {!Tuner.tune}'s default margin budgets for
           Source-mode rounding the first-order model does not see —
           with the overflow veto answered from the profile's ranges. *)
        Trace.with_span "search.model_score" @@ fun () ->
        let eps = Fp.unit_roundoff target in
        let budget = threshold /. 2. in
        let by_atom =
          List.filter
            (fun v -> not (Profile.overflows profile ~target v))
            candidates
          |> List.sort (fun a b ->
                 compare (Profile.atom profile a) (Profile.atom profile b))
        in
        skip (List.length candidates);
        if Trace.enabled () then begin
          Trace.add_attr "scored" (Trace.Int (List.length candidates));
          Trace.add_attr "budget" (Trace.Float budget)
        end;
        let chosen, _ =
          List.fold_left
            (fun (acc, spent) v ->
              let c = Profile.atom profile v *. eps in
              if spent +. c <= budget then (v :: acc, spent +. c)
              else (acc, spent))
            ([], 0.) by_atom
        in
        List.rev chosen
    | (`Measured | `Hybrid) as strategy ->
        (* What one candidate configuration's "error" means. Point mode:
           |y_config - y_double| at the single base args. Sampled mode
           ([sampling]): a Monte-Carlo input sweep ({!Sampling}) — the
           configuration's error is the chosen quantile (e.g. p99) of
           |y_config(x_i) - y_double(x_i)| over the sampled inputs, with
           the double reference sweep computed once and shared across
           every candidate. In both modes one candidate evaluation
           counts one [execution] (set units, so the hybrid-vs-measured
           accounting is mode-independent); sampled evaluations
           additionally count their lane sweeps in [batched_runs]. *)
        let point_reference, measure_config =
          match sampling with
          | None ->
              let reference =
                Trace.with_span "search.reference" (fun () ->
                    run Config.double)
              in
              ( Some reference,
                fun config -> Float.abs (run config -. reference) )
          | Some s ->
              let lanes =
                match batch with
                | Some l when l > 1 -> l
                | _ -> Batch.default_lanes
              in
              let count_sweep () =
                Atomic.incr executions;
                ignore
                  (Atomic.fetch_and_add batched_runs
                     ((Array.length s.inputs + lanes - 1) / lanes))
              in
              let reference =
                Trace.with_span "search.reference" (fun () ->
                    count_sweep ();
                    Sampling.sweep ~jobs ~lanes ?builtins ?mode ~prog ~func
                      ~config:Config.double s.inputs)
              in
              ( None,
                fun config ->
                  count_sweep ();
                  let errs, _ =
                    Sampling.measured_errors ~jobs ~lanes ?builtins ?mode
                      ~reference ~prog ~func ~config s.inputs
                  in
                  Quantile.quantile_of_array errs s.quantile )
        in
        (* Per-candidate spans carry the probed variable set and its
           observed error; they run inside pool workers and nest under
           the batch's phase span. *)
        let error_of ?(span = "search.candidate") vars =
          Trace.with_span span @@ fun () ->
          if Trace.enabled () then
            Trace.add_attr "vars" (Trace.Str (String.concat "," vars));
          let config = Config.demote_all Config.double vars target in
          let e = measure_config config in
          if Trace.enabled () then Trace.add_attr "error" (Trace.Float e);
          e
        in
        (* Errors of a list of candidate variable-sets at once. With
           [batch] set this is the searched-for hot path: n sets
           evaluate as ⌈n/K⌉ lane sweeps of one configuration-generic
           compilation instead of n scalar compile+run pairs.
           [executions] still counts one per set
           (program-runs-equivalent, keeping the Precimonious
           comparison honest); [batched_runs] counts the sweeps.
           Per-set observability drops from spans to events — the sets
           inside one sweep have no meaningful individual duration. *)
        let errors_of_sets sets =
          match (point_reference, batch) with
          | Some reference, Some lanes when lanes > 1 && List.length sets > 1
            ->
              let n = List.length sets in
              let configs =
                List.map
                  (fun vars -> Config.demote_all Config.double vars target)
                  sets
              in
              ignore (Atomic.fetch_and_add executions n);
              ignore
                (Atomic.fetch_and_add batched_runs ((n + lanes - 1) / lanes));
              let b =
                Compile_cache.compile_batch ?builtins ?mode ~prog ~func ()
              in
              let fallback config =
                Compile_cache.compile ?builtins ?mode ~meter:true ~config
                  ~prog ~func ()
              in
              let vals = Batch.run_many ~jobs ~lanes ~fallback b ~configs args in
              List.map2
                (fun vars v ->
                  let e = Float.abs (v -. reference) in
                  Trace.event "search.candidate"
                    ~attrs:
                      [
                        ("vars", Trace.Str (String.concat "," vars));
                        ("error", Trace.Float e);
                      ];
                  e)
                sets vals
          | Some _, _ ->
              Pool.parallel_map ~jobs (fun vars -> error_of vars) sets
          | None, _ ->
              (* Sampled mode: each set is already a [jobs]-wide lane
                 sweep over the inputs axis, so sets evaluate in
                 sequence — parallelism lives inside the sweep, not
                 across sets. *)
              List.map (fun vars -> error_of vars) sets
        in
        (* The all-demoted shortcut costs one run under `Measured. The
           model rejects the full set when its scored error clears the
           threshold with [prune_margin] to spare; `Hybrid then skips
           that certain-to-fail run — one execution saved before any
           probing on every workload where search is non-trivial. The
           rejection is a prediction, not a proof (on self-correcting
           kernels like HPCCG's CG loop the measured error of an
           accepted set can sit orders of magnitude below its
           first-order score), which is why it is trusted here only,
           where the margin has been validated to hold. *)
        let all_error =
          if
            strategy = `Hybrid
            && Profile.score_vars profile ~target candidates
               > prune_margin *. threshold
          then begin
            skip 1;
            Trace.event "search.model_score"
              ~attrs:
                [
                  ("phase", Trace.Str "all_demoted");
                  ("pruned", Trace.Int 1);
                ];
            None
          end
          else Some (error_of ~span:"search.all_demoted" candidates)
        in
        (match all_error with
        | Some e when e <= threshold -> candidates
        | _ ->
            (* Individual probing: every candidate's solo demotion error
               is an independent execution — one parallel batch. Probes
               are never model-pruned: a solo score can overestimate the
               measured error without bound (exactly-representable
               values, self-correcting iteration), so any margin large
               enough to be safe would also never fire. *)
            let individual =
              Trace.with_span "search.probe" (fun () ->
                  let errs =
                    errors_of_sets (List.map (fun v -> [ v ]) candidates)
                  in
                  List.combine candidates errs)
              |> List.filter (fun (_, e) -> e <= threshold)
              |> List.sort (fun (_, a) (_, b) -> compare a b)
            in
            (* Greedy growth, batched per round by speculation: round k
               evaluates in parallel the prefix trials
               [chosen @ pending_1..i] for every pending candidate i,
               i.e. the trials the sequential greedy would run if every
               earlier candidate were accepted. Up to the first failure
               those are exactly the sequential trials; at a failure the
               failing candidate is dropped and the next round restarts
               from the survivors, so accepted sets are bit-identical to
               the one-at-a-time greedy for any [jobs] (the speculated
               trials past a failure are wasted executions — the price
               of the batch, counted like any other run). *)
            let rec grow chosen pending =
              match pending with
              | [] -> chosen
              | _ ->
                  let prefixes =
                    List.rev
                      (fst
                         (List.fold_left
                            (fun (acc, trial) (v, _) ->
                              let trial = trial @ [ v ] in
                              (trial :: acc, trial))
                            ([], chosen) pending))
                  in
                  let errs =
                    Trace.with_span "search.grow" (fun () ->
                        if Trace.enabled () then
                          Trace.add_attr "pending"
                            (Trace.Int (List.length pending));
                        errors_of_sets prefixes)
                  in
                  let rec accept chosen pend errs =
                    match (pend, errs) with
                    | (v, _) :: pend', e :: errs' ->
                        if e <= threshold then
                          accept (chosen @ [ v ]) pend' errs'
                        else (chosen, pend')
                    | _ -> (chosen, [])
                  in
                  let chosen, rest = accept chosen pending errs in
                  grow chosen rest
            in
            grow [] individual)
  in
  let config = Config.demote_all Config.double chosen target in
  let evaluation =
    Tuner.evaluate ?builtins ?mode ~jobs ~prog ~func ~args config
  in
  (* Cross-check the searched configuration against the CHEF-FP error
     model: the profile already paid for the one gradient-augmented
     execution, so the estimate for the chosen set is a dot product. *)
  let modelled_error = Profile.score profile config in
  (* Ground-truth cross-check of the chosen configuration, when the
     caller supplied one (the shadow oracle lives in a library above
     this one; see the .mli). Traced like any other phase. *)
  let measured_error =
    Option.map
      (fun m ->
        Trace.with_span "search.measure" (fun () ->
            let e = m config in
            if Trace.enabled () then Trace.add_attr "error" (Trace.Float e);
            e))
      measure
  in
  if Trace.enabled () then
    Trace.add_attr "runs_avoided" (Trace.Int (Atomic.get avoided));
  {
    demoted = chosen;
    executions = Atomic.get executions;
    batched_runs = Atomic.get batched_runs;
    runs_avoided = Atomic.get avoided;
    strategy;
    evaluation;
    modelled_error;
    measured_error;
    threshold;
    samples =
      (match sampling with Some s -> Array.length s.inputs | None -> 0);
  }
