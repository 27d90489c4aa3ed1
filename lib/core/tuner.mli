(** Mixed-precision tuning driven by CHEF-FP error estimates (paper §III).

    The workflow the paper describes: estimate every variable's
    contribution to the total FP error (its estimated error if demoted),
    then demote the cheapest variables greedily while the accumulated
    estimate stays within the user's threshold. Each candidate
    configuration can be validated by executing the program bit-accurately
    under the configuration and comparing with the all-double result, and
    its performance is modelled by the {!Cheffp_precision.Cost} meter
    (OCaml has no native narrow floats; see DESIGN.md). *)

open Cheffp_ir
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

type evaluation = {
  config : Config.t;
  actual_error : float;
      (** |f(config) - f(double)| executed bit-accurately *)
  modelled_speedup : float;  (** cost(double) / cost(config) *)
  casts : int;  (** implicit precision casts charged under [config] *)
}

val evaluate :
  ?builtins:Builtins.t ->
  ?mode:Config.rounding_mode ->
  ?jobs:int ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  Config.t ->
  evaluation
(** Run the function under [config] and under all-double and compare.
    The function must return a float. Both are {!run}s; with
    [jobs > 1] they execute on separate domains — results are
    bit-identical either way. *)

val run :
  ?builtins:Builtins.t ->
  ?mode:Config.rounding_mode ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  Config.t ->
  float * float * int
(** One metered scalar run of the float-returning function under
    [config], on a copy of [args]: [(value, modelled cost, casts)].
    The compilation is memoized in {!Compile_cache} (metered, counter
    threaded per run), so one cached instance serves every
    configuration revisited by {!evaluate} and by {!Search.tune}'s
    candidate runs. Traced as a [run] span. *)

type outcome = {
  threshold : float;
  demoted : string list;  (** variables chosen for demotion *)
  vetoed : string list;
      (** variables excluded because their observed value range would
          overflow the target format (first-order error models cannot
          see overflow, so the tuner checks ranges explicitly) *)
  estimated_error : float;
      (** sum of the chosen variables' estimated contributions *)
  contributions : (string * float) list;
      (** every candidate's estimated contribution, ascending *)
  evaluation : evaluation;  (** validation of the chosen configuration *)
}

val tune :
  ?model:Model.t ->
  ?profile:Profile.t ->
  ?target:Fp.format ->
  ?mode:Config.rounding_mode ->
  ?builtins:Builtins.t ->
  ?margin:float ->
  ?jobs:int ->
  prog:Ast.program ->
  func:string ->
  args:Interp.arg list ->
  threshold:float ->
  unit ->
  outcome
(** Greedy tuning: candidates are the float variables of the source
    function (parameters and locals); contributions come from a
    CHEF-FP analysis with [model] (default {!Model.adapt} at [target],
    default [F32], matching Eq. 2). Variables are demoted in ascending
    contribution order while the accumulated estimate stays within
    [threshold /. margin]. [margin] (default 2.0) is a safety factor:
    the first-order model charges one rounding per assignment, while
    [Source]-mode execution rounds every operation, so selections
    exactly at the threshold can overshoot slightly. [jobs] (default 1)
    is forwarded to the validating {!evaluate}.

    [profile], when given, replaces the fresh analysis entirely
    ([model] is then ignored): contributions are the profile's
    error atoms scaled by [target]'s unit roundoff (the first-order
    Taylor estimate, see {!Profile.score_vars}) and the overflow veto
    reads the profile's recorded ranges — the whole selection runs
    without a single new augmented execution, so a profile built once
    (or fetched from the cache, {!Profile.build_cached}) serves any
    number of thresholds and targets. *)

val select :
  target:Fp.format ->
  margin:float ->
  threshold:float ->
  ranges:(string -> (float * float) list) ->
  contribution:(string -> float) ->
  string list ->
  string list * Config.t * (evaluation -> outcome)
(** {!tune}'s selection over the given candidates, without any
    execution: a candidate with an observed range ([ranges] lists one
    per analysed dataset) beyond half of [target]'s largest finite
    value is vetoed, and the rest are demoted in ascending
    [contribution] order while the accumulated contribution stays
    within [threshold /. margin]. Returns the demoted variables in that
    order, their configuration, and the outcome awaiting the
    configuration's validation. *)

val float_variables : Ast.func -> string list
(** The demotion candidates of a function: float parameters, float
    locals, and float arrays, in declaration order. *)

val tune_multi :
  ?model:Model.t ->
  ?target:Fp.format ->
  ?mode:Config.rounding_mode ->
  ?builtins:Builtins.t ->
  ?margin:float ->
  ?jobs:int ->
  prog:Ast.program ->
  func:string ->
  args_list:Interp.arg list list ->
  threshold:float ->
  unit ->
  outcome * evaluation list
(** Tune over a representative set of inputs (the paper's §V-B caveat
    that single-dataset configurations are input-dependent): a
    variable's contribution is its worst case across the datasets, the
    overflow veto considers every observed range, and the returned
    outcome embeds the worst-case validation (all per-dataset
    evaluations are also returned). The greedy selection is {!tune}'s,
    over those worst cases. With [jobs > 1] the datasets are validated
    on separate domains (each evaluation sequential inside), with
    bit-identical results. @raise Invalid_argument on an empty dataset
    list. *)
