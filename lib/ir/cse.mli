(** Value numbering over straight-line runs.

    Adjoint code generated by reverse-mode AD is full of repeated pure
    subexpressions: product-rule seeds reuse operand values, and a
    variable read twice on a right-hand side produces two identical
    accumulation statements (the arclength adjoint evaluates
    [sqrt(h*h + d*d)] four times per reverse iteration). This pass
    evaluates each such value once:

    - a worthwhile subexpression that occurs more than once while its
      operands keep their values, within one right-hand side or across
      statements, is named in a fresh binary64 temporary at its first
      use, and later occurrences read the temporary;
    - when the first occurrence is the whole right-hand side stored into
      a binary64 scalar, that scalar holds the value instead, until it
      is written again.

    A store or a pop ends the facts that read the written variable. An
    [if] ends only the facts its branches write (the estimator's range
    [if]s write one registry slot), and facts made inside a branch stay
    there; loops start and end with no facts. Only float-typed, pure
    expressions participate ("worthwhile" means containing an intrinsic
    call, which counts as pure, or at least five AST nodes); calls to
    double-underscore intrinsics (runtime callbacks) are never named.
    The transformation is exactly value-preserving: identical
    operations in the same order on the same operands produce
    bit-identical floats. {!Optimize.optimize_func} runs it once before
    its folding, propagation and dead-code passes. *)

val cse_func :
  ?builtins:Builtins.t ->
  ?prog:Ast.program ->
  ?opaque:(string -> bool) ->
  Ast.func ->
  Ast.func
(** [prog] provides typing context for user calls and defaults to the
    empty program (the usual post-inlining state: expressions containing
    unresolvable calls are simply not touched). [opaque] variables (see
    {!Optimize.optimize_func}) neither serve as availability holders nor
    appear inside recorded expressions. The function must typecheck. *)
