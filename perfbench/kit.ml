(* Plumbing shared by the workloads: the CLI's registries, argument
   copies and bit-exact comparison of reports. *)

open Cheffp_ir

(* The same builtins/derivative registries `cheffp` builds per process. *)
let builtins () =
  let b = Builtins.create () in
  Cheffp_fastapprox.Fastapprox.register_builtins b;
  b

let deriv () =
  let d = Cheffp_ad.Deriv.default () in
  Cheffp_fastapprox.Fastapprox.register_derivatives d;
  d

(* Runs mutate array arguments in place, so every run gets its own. *)
let copy_args args =
  List.map
    (function
      | Interp.Afarr a -> Interp.Afarr (Array.copy a)
      | Interp.Aiarr a -> Interp.Aiarr (Array.copy a)
      | (Interp.Aint _ | Interp.Aflt _) as x -> x)
    args

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_pairs a b =
  List.length a = List.length b
  && List.for_all2 (fun (n, x) (m, y) -> n = m && same_float x y) a b

let same_report (a : Cheffp_core.Estimate.report) (b : Cheffp_core.Estimate.report) =
  let open Cheffp_core.Estimate in
  same_float a.total_error b.total_error
  && same_pairs a.gradients b.gradients
  && same_pairs a.per_variable b.per_variable
  && List.length a.array_gradients = List.length b.array_gradients
  && List.for_all2
       (fun (n, x) (m, y) ->
         n = m && Array.length x = Array.length y && Array.for_all2 same_float x y)
       a.array_gradients b.array_gradients
  && a.analysis_bytes = b.analysis_bytes
  && a.stack_peak_bytes = b.stack_peak_bytes

(* Statements of a function body, nested ones included. *)
let rec count_stmts stmts =
  List.fold_left
    (fun acc s ->
      acc + 1
      +
      match s with
      | Ast.If (_, a, b) -> count_stmts a + count_stmts b
      | Ast.For { body; _ } | Ast.While (_, body) -> count_stmts body
      | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Call_stmt _ | Ast.Push _
      | Ast.Pop _ ->
          0)
    0 stmts

(* Closed loop for a time budget: one warm-up pass ([pass ~timed:false
   0], checked but not measured: the first pass pays heap growth and
   first-touch costs no later pass does), then timed passes 1, 2, ...
   until [seconds] have gone, but at least [min_passes] of them. *)
let loop ~seconds ~min_passes pass =
  pass ~timed:false 0;
  let t0 = Stat.now () in
  let rec go k =
    if k <= min_passes || Stat.now () -. t0 < seconds then begin
      pass ~timed:true k;
      go (k + 1)
    end
  in
  go 1
