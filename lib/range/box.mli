(** Input boxes for range analysis: one interval per float input (per
    element for float arrays), everything else pinned to the concrete
    argument.

    The default box mirrors {!Cheffp_core.Sampling}'s derivation:
    +/- 50% of the base value's magnitude, widened to the absolute
    interval [[-1, 1]] at zero (a relative box collapses to a point
    there); FPCore [:pre] ranges override it where present. *)

open Cheffp_ir

exception Spec_error of string

type dim =
  | Dflt of Interval.t  (** float scalar input *)
  | Dfarr of Interval.t array  (** float array input, per element *)
  | Dfixed of Interp.arg  (** ints, int arrays, out params *)

type t

val dims : t -> (string * dim) list

val default_iv : float -> Interval.t
(** The default box around a base value (+/- 50%, absolute [-1, 1] at
    zero). *)

val of_args :
  ?ranges:(string * (float option * float option)) list ->
  func:Ast.func ->
  args:Interp.arg list ->
  unit ->
  t
(** Box from default arguments, with FPCore [:pre] [ranges] taking
    precedence where two-sided.
    @raise Spec_error on an argument-count mismatch. *)

val point_of_args : func:Ast.func -> args:Interp.arg list -> unit -> t
(** Degenerate box pinning every float input to its argument value —
    the right box when candidate errors are measured at exactly
    [args]. *)

val override_of_string : string -> (string * Interval.t) list
(** Parses a ["x=lo,hi; y=lo,hi"] [--box] spec.
    @raise Spec_error on malformed entries. *)

val apply_override : t -> (string * Interval.t) list -> t
(** @raise Spec_error when a name is unknown or not a scalar float. *)

val split : t -> (t * t) option
(** Bisects the scalar float dimension with the largest normalized
    width; [None] when every scalar dimension is a point (array
    dimensions are never split). *)

val to_string : t -> string
