open Cheffp_ir
open Ast
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Cost = Cheffp_precision.Cost
module Trace = Cheffp_obs.Trace

type evaluation = {
  config : Config.t;
  actual_error : float;
  modelled_speedup : float;
  casts : int;
}

let float_variables f =
  let params =
    List.filter_map
      (fun p ->
        match p.pty with
        | Tscalar (Sflt _) | Tarr (Sflt _) -> Some p.pname
        | _ -> None)
      f.params
  in
  let locals = ref [] in
  let rec stmt = function
    | Decl { name; dty = Dscalar (Sflt _); _ }
    | Decl { name; dty = Darr (Sflt _, _); _ } ->
        locals := name :: !locals
    | Decl _ -> ()
    | If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | For { body; _ } | While (_, body) -> List.iter stmt body
    | Assign _ | Return _ | Call_stmt _ | Push _ | Pop _ -> ()
  in
  List.iter stmt f.body;
  params @ List.rev !locals

let run ?builtins ?mode ~prog ~func ~args config =
  (* Metered compilation through the cache; the counter is threaded
     per run, so the cached instance is shared across configurations,
     repeated evaluations, search candidates and pool workers alike.
     Argument copies keep concurrent runs independent. *)
  let counter = Cost.Counter.create Cost.default in
  let compiled =
    Compile_cache.compile ?builtins ?mode ~meter:true ~config ~prog ~func ()
  in
  let value =
    Trace.with_span "run" (fun () ->
        if Trace.enabled () then
          Trace.add_attr "config" (Trace.Str (Config.to_string config));
        Compile.run_float ~counter compiled (Interp.copy_args args))
  in
  (value, Cost.Counter.total counter, Cost.Counter.casts counter)

let evaluate ?builtins ?mode ?(jobs = 1) ~prog ~func ~args config =
  Trace.with_span "tuner.evaluate" @@ fun () ->
  (* The reference run and the configured run are independent; with
     [jobs > 1] they execute on separate domains. *)
  match
    Cheffp_util.Pool.parallel_map ~jobs
      (fun cfg -> run ?builtins ?mode ~prog ~func ~args cfg)
      [ Config.double; config ]
  with
  | [ (reference, ref_cost, _); (value, cost, casts) ] ->
      let ev =
        {
          config;
          actual_error = Float.abs (value -. reference);
          modelled_speedup = (if cost > 0. then ref_cost /. cost else 1.);
          casts;
        }
      in
      if Trace.enabled () then begin
        Trace.add_attr "actual_error" (Trace.Float ev.actual_error);
        Trace.add_attr "modelled_speedup" (Trace.Float ev.modelled_speedup)
      end;
      ev
  | _ -> assert false

type outcome = {
  threshold : float;
  demoted : string list;
  vetoed : string list;
  estimated_error : float;
  contributions : (string * float) list;
  evaluation : evaluation;
}

(* The greedy selection shared by [tune] and [tune_multi]. A variable
   whose observed magnitude approaches the target format's largest
   finite value would overflow when demoted: it is vetoed outright
   (first-order error models cannot see overflow). [ranges v] lists
   every observed range of [v], one per analysed dataset. The rest are
   demoted in ascending [contribution] order while the accumulated
   estimate stays within [threshold /. margin]. Returns the demoted
   variables, their configuration and the outcome without its
   validation, which the caller runs on that configuration. *)
let select ~target ~margin ~threshold ~ranges ~contribution candidates =
  let limit = 0.5 *. Fp.max_finite target in
  let overflows v =
    List.exists
      (fun (lo, hi) -> Float.max (Float.abs lo) (Float.abs hi) > limit)
      (ranges v)
  in
  let vetoed, candidates = List.partition overflows candidates in
  let contributions =
    List.map (fun v -> (v, contribution v)) candidates
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let budget = threshold /. margin in
  let demoted, estimated_error =
    List.fold_left
      (fun (chosen, acc) (v, e) ->
        if acc +. e <= budget then (v :: chosen, acc +. e)
        else (chosen, acc))
      ([], 0.) contributions
  in
  let demoted = List.rev demoted in
  let config = Config.demote_all Config.double demoted target in
  ( demoted,
    config,
    fun evaluation ->
      { threshold; demoted; vetoed; estimated_error; contributions; evaluation }
  )

let tune ?model ?profile ?(target = Fp.F32) ?mode ?builtins ?(margin = 2.0)
    ?(jobs = 1) ~prog ~func ~args ~threshold () =
  Trace.with_span "tuner.tune" @@ fun () ->
  if Trace.enabled () then begin
    Trace.add_attr "func" (Trace.Str func);
    Trace.add_attr "threshold" (Trace.Float threshold);
    Trace.add_attr "jobs" (Trace.Int jobs);
    Trace.add_attr "profiled" (Trace.Bool (profile <> None))
  end;
  (* Contribution and range queries come either from a caller-supplied
     error-atom profile — a previous augmented run, answered without any
     new analysis or execution — or from a fresh adapt-model estimate. *)
  let contribution, ranges =
    match profile with
    | Some p ->
        let eps = Fp.unit_roundoff target in
        ( (fun v -> Profile.atom p v *. eps),
          fun v -> Option.to_list (List.assoc_opt v (Profile.ranges p)) )
    | None ->
        let model =
          match model with Some m -> m | None -> Model.adapt ~target ()
        in
        let est =
          Estimate.estimate_error ~model
            ~options:
              { Estimate.default_options with Estimate.track_ranges = true }
            ~prog ~func ()
        in
        let report = Estimate.run est args in
        ( (fun v ->
            Option.value ~default:0.
              (List.assoc_opt v report.Estimate.per_variable)),
          fun v -> Option.to_list (List.assoc_opt v report.Estimate.ranges) )
  in
  let _, config, outcome =
    select ~target ~margin ~threshold ~ranges ~contribution
      (float_variables (func_exn prog func))
  in
  outcome (evaluate ?builtins ?mode ~jobs ~prog ~func ~args config)

(* Multi-dataset tuning (paper SS V-B: "it is important to analyze the
   application over a representative set of inputs"): contributions are
   the worst case over all datasets, the range veto considers every
   observed value, and the chosen configuration is validated against
   every dataset. *)
let tune_multi ?model ?(target = Fp.F32) ?mode ?builtins ?(margin = 2.0)
    ?(jobs = 1) ~prog ~func ~args_list ~threshold () =
  Trace.with_span "tuner.tune_multi" @@ fun () ->
  (match args_list with
  | [] -> invalid_arg "Tuner.tune_multi: empty dataset list"
  | _ -> ());
  let model =
    match model with Some m -> m | None -> Model.adapt ~target ()
  in
  let est =
    Estimate.estimate_error ~model
      ~options:{ Estimate.default_options with Estimate.track_ranges = true }
      ~prog ~func ()
  in
  let reports = List.map (fun args -> Estimate.run est args) args_list in
  let contribution v =
    List.fold_left
      (fun acc r ->
        Float.max acc
          (Option.value ~default:0. (List.assoc_opt v r.Estimate.per_variable)))
      0. reports
  in
  let ranges v =
    List.filter_map (fun r -> List.assoc_opt v r.Estimate.ranges) reports
  in
  let _, config, outcome =
    select ~target ~margin ~threshold ~ranges ~contribution
      (float_variables (func_exn prog func))
  in
  let evaluations =
    (* Datasets fan out across domains; each evaluation stays sequential
       inside so one tuning run never nests domain pools. *)
    Cheffp_util.Pool.parallel_map ~jobs
      (fun args -> evaluate ?builtins ?mode ~prog ~func ~args config)
      args_list
  in
  let worst =
    List.fold_left
      (fun acc ev -> if ev.actual_error > acc.actual_error then ev else acc)
      (List.hd evaluations) evaluations
  in
  (outcome worst, evaluations)
