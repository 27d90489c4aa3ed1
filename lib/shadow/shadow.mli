(** Lockstep shadow execution: the ground-truth side of the oracle.

    [run] compiles a MiniFP function to closures over slot-indexed
    frames and runs it once, carrying {e two} values per float: the
    "low lane" — a binary64 rounded exactly like {!Cheffp_ir.Interp}
    under the given {!Cheffp_precision.Config} and rounding mode
    (bit-identical, asserted by the test suite) — and a
    "shadow lane" in ~106-bit double-double ({!Dd}) that is never
    rounded except where the program itself demands an integer (and at
    the explicit [castf32]/[castf16] intrinsics, which the shadow lane
    treats as identity: the reference is real-valued execution).

    Control flow, float→int conversion, and every other discrete
    decision are taken from the low lane, so the two lanes can never
    structurally diverge within one run; the per-decision
    {!field:result.branch_hash} lets callers compare {e two} runs (e.g.
    a demoted configuration against all-binary64) and detect when
    demotion flipped a branch — the regime where first-order error
    models are knowingly invalid (DESIGN.md §10). *)

module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config
module Interp = Cheffp_ir.Interp

type measurement = {
  name : string;  (** ["<ret>"], or the [out] parameter's name *)
  low : float;  (** the configured-precision result *)
  shadow : Dd.t;  (** the double-double reference *)
  abs_error : float;  (** [|low - shadow|], in binary64 *)
  rel_error : float;
      (** [abs_error / |shadow|]; equals [abs_error] when the
          reference magnitude is below 1e-30. *)
}

type result = {
  ret : measurement option;  (** [None] for int/void returns *)
  ret_int : int option;
  outs : measurement list;
  divergence : (string * float) list;
      (** per-variable worst |low − shadow| over every store to that
          variable (array stores under the array's name), sorted
          descending *)
  branch_hash : int;
      (** order-sensitive hash of every discrete decision: [if]/[while]
          outcomes, [ftoi]/[select]/[sign]/[floor]/[ceil] results,
          [fmin]/[fmax] argument choice *)
}

type dd_impl = Dd.t array -> Dd.t
(** Shadow-lane implementation of a float-returning builtin; receives
    the shadow values of the float arguments (int arguments appear via
    {!Dd.of_int}). *)

val default_dd_builtins : (string * dd_impl) list
(** Shadow implementations for the default {!Cheffp_ir.Builtins}
    registry. Transcendentals use first-order derivative correction —
    [f(hi) + f'(hi)·lo] — which is accurate to ~1 binary64 ulp of the
    true value (not to the full 106 bits); [sqrt] and the four basic
    operations are fully accurate. See DESIGN.md §10. *)

val run :
  ?builtins:Cheffp_ir.Builtins.t ->
  ?dd_builtins:(string * dd_impl) list ->
  ?config:Config.t ->
  ?mode:Config.rounding_mode ->
  ?fuel:int ->
  prog:Cheffp_ir.Ast.program ->
  func:string ->
  Interp.arg list ->
  result
(** Mirrors [Interp.run]'s signature and semantics on the low lane
    (including demoted-input-array copy-rounding; the shadow lane seeds
    from the caller's unrounded values, so measured error includes
    input representation error, matching the estimate's per-variable
    input terms). [dd_builtins] extends/overrides
    {!default_dd_builtins}; a float builtin with no shadow
    implementation degrades gracefully — its low-lane function is
    applied to the shadow arguments rounded to binary64 (recorded once
    as a ["shadow.degraded"] trace event). Raises
    [Interp.Runtime_error] exactly where the interpreter would, with
    its message (and honours [fuel] the same way, one unit per executed
    statement). User functions run in their own frames, out parameters
    by reference, so [divergence] keys are the names the source uses.
    On a program that fails {!Cheffp_ir.Typecheck} only because a
    function's [return]s disagree with its declared result kind, the
    error is raised at the call rather than where the interpreter
    would trip over the mismatched value. *)

val measured_error : result -> float
(** Worst [abs_error] over the return value and every [out]
    measurement; [0.] if the function produced no float results. *)
