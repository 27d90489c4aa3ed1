(** Rigorous range/error bounds for MiniFP functions over input boxes.

    [analyze] runs the {!Taylor} evaluator through a {!Backend} and
    certifies a worst-configuration error bound (or says why none
    exists); [score] specializes the certified leaves to one concrete
    demotion set in O(#vars). *)

open Cheffp_ir
module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config

type verdict = Bounded | Unbounded of string

val verdict_to_string : verdict -> string

type analysis = {
  verdict : verdict;
  worst_bound : float;
      (** certified max [|config - reference|] over the box for {e any}
          demotion configuration (everything F16); [infinity] when the
          verdict is [Unbounded] *)
  value : Interval.t option;
      (** enclosure of the reference run's return value *)
  witness : Box.t;  (** sub-box where [worst_bound] is attained *)
  box : Box.t;
  backend : string;
  splits : int;
  evals : int;
  elapsed_ms : float;
  leaves : (float * Box.t * Taylor.result option) list;
}

val analyze :
  ?backend:string ->
  ?pars:Backend.pars ->
  ?builtins:Builtins.t ->
  ?mode:Config.rounding_mode ->
  ?fuel:int ->
  prog:Ast.program ->
  func:string ->
  box:Box.t ->
  unit ->
  analysis
(** [backend] is ["bb"] (branch-and-bound, default) or ["whole"];
    @raise Invalid_argument on an unknown backend or function. *)

val score : analysis -> target:Fp.format -> string list -> float option
(** Certified error bound for the configuration demoting exactly the
    given variables to [target]. [None] when the analysis cannot vouch
    for that configuration: an unbounded leaf, a declared-narrow
    variable in the set, or a demoted store whose magnitude can reach
    half the target's finite range (overflow veto). A [Some b] is a
    sound upper bound on the configuration's error anywhere in the
    box. *)

val charged_vars : analysis -> string list
(** Every variable the certified forms charge, sorted. *)

val report : ?target:Fp.format -> analysis -> string
(** Multi-line human-readable rendering: backend/work counters, box,
    verdict, value enclosure, worst-config and all-at-[target] bounds,
    witness sub-box. *)
