open Cheffp_ir
module Reverse = Cheffp_ad.Reverse
module Forward = Cheffp_ad.Forward
module Deriv = Cheffp_ad.Deriv
module Activity = Cheffp_ad.Activity

(* Finite-difference reference. *)
let fd f x =
  let h = 1e-6 *. Float.max 1. (Float.abs x) in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

let close ?(tol = 1e-5) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) /. scale < tol

let check_close ?tol msg a b =
  if not (close ?tol a b) then
    Alcotest.failf "%s: %.12g vs %.12g" msg a b

(* Differentiate [func] in [src] and return (value fn, grad fn) where
   grad maps the float scalar params. *)
let grad_of src func =
  let prog = Parser.parse_program src in
  Typecheck.check_program prog;
  let g = Reverse.differentiate prog func in
  let prog' = Ast.add_func prog g in
  Typecheck.check_program prog';
  let f = Ast.func_exn prog func in
  let nfloat =
    List.length
      (List.filter
         (fun p -> match p.Ast.pty with Ast.Tscalar (Ast.Sflt _) -> true | _ -> false)
         f.Ast.params)
  in
  let value args = Interp.run_float ~prog ~func args in
  let grad args =
    let full = args @ List.init nfloat (fun _ -> Interp.Aflt 0.) in
    let r = Interp.run ~prog:prog' ~func:g.Ast.fname full in
    List.map (fun (_, v) -> Builtins.as_float v) r.Interp.outs
  in
  (value, grad)

(* ------------------------------------------------------------------ *)
(* Derivative rules vs finite differences                             *)

let test_intrinsic_rules () =
  let cases =
    [
      ("sin", "sin(x)", 0.7);
      ("cos", "cos(x)", 0.7);
      ("tan", "tan(x)", 0.4);
      ("exp", "exp(x)", 0.3);
      ("log", "log(x)", 2.0);
      ("log2", "log2(x)", 3.0);
      ("log10", "log10(x)", 3.0);
      ("sqrt", "sqrt(x)", 2.0);
      ("tanh", "tanh(x)", 0.5);
      ("atan", "atan(x)", 0.8);
      ("fabs+", "fabs(x)", 1.5);
      ("fabs-", "fabs(x)", -1.5);
      ("pow", "pow(x, 2.5)", 1.4);
      ("pow exp", "pow(2.0, x)", 1.2);
      ("fmin l", "fmin(x, 10.0)", 1.0);
      ("fmin r", "fmin(x, -10.0)", 1.0);
      ("fmax l", "fmax(x, -10.0)", 1.0);
      ("select", "select(1 == 1, x * 2.0, x * 3.0)", 1.0);
    ]
  in
  List.iter
    (fun (name, expr, x0) ->
      let src = Printf.sprintf "func f(x: f64): f64 { return %s; }" expr in
      let value, grad = grad_of src "f" in
      let ad = List.hd (grad [ Interp.Aflt x0 ]) in
      let num = fd (fun x -> value [ Interp.Aflt x ]) x0 in
      check_close ~tol:1e-4 name ad num)
    cases

let test_cast_smooth_surrogate () =
  (* castf32 is a staircase; its AD rule is the smooth surrogate 1. *)
  let src = "func f(x: f64): f64 { return castf32(x) * 2.0; }" in
  let _, grad = grad_of src "f" in
  Alcotest.(check (float 0.)) "d castf32 = 1" 2.
    (List.hd (grad [ Interp.Aflt 1.3 ]))

let test_piecewise_constant_rules () =
  List.iter
    (fun expr ->
      let src = Printf.sprintf "func f(x: f64): f64 { return %s; }" expr in
      let _, grad = grad_of src "f" in
      Alcotest.(check (float 0.)) (expr ^ " has zero derivative") 0.
        (List.hd (grad [ Interp.Aflt 1.3 ])))
    [ "floor(x)"; "ceil(x)"; "sign(x)"; "itof(ftoi(x))" ]

let test_unknown_intrinsic_rejected () =
  let deriv = Deriv.empty () in
  let prog = Parser.parse_program "func f(x: f64): f64 { return sin(x); }" in
  Alcotest.(check bool) "missing rule" true
    (try
       ignore (Reverse.differentiate ~deriv prog "f");
       false
     with Reverse.Error _ -> true)

let test_deriv_alias () =
  let deriv = Deriv.default () in
  Deriv.alias deriv "mysin" "sin";
  Alcotest.(check bool) "alias exists" true (Deriv.find deriv "mysin" <> None);
  Alcotest.(check bool) "alias of unknown raises" true
    (try
       Deriv.alias deriv "x" "nosuchthing";
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Reverse mode on structured programs                                *)

let structured_src =
  {|
func g(x: f64, y: f64, n: int): f64 {
  var s: f64 = 0.0;
  var t: f64 = x;
  var arr: f64[n];
  for i in 0 .. n {
    t = t * y + sin(x * itof(i + 1));
    if (t > 2.0) { t = t / 2.0; }
    arr[i] = t;
  }
  var k: int = 0;
  while (k < n) {
    s = s + arr[k] * arr[k];
    k = k + 2;
  }
  return sqrt(s + exp(x / 10.0));
}
|}

let test_reverse_vs_fd_structured () =
  let value, grad = grad_of structured_src "g" in
  List.iter
    (fun (x, y) ->
      let args = [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 7 ] in
      match grad args with
      | [ dx; dy ] ->
          check_close "dx"
            (fd (fun x -> value [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 7 ]) x)
            dx;
          check_close "dy"
            (fd (fun y -> value [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 7 ]) y)
            dy
      | _ -> Alcotest.fail "expected two gradients")
    [ (0.9, 0.4); (-0.3, 0.8); (1.7, -0.6) ]

let qcheck_reverse_vs_fd =
  QCheck.Test.make ~count:40 ~name:"reverse mode matches finite differences"
    QCheck.(pair (float_range (-1.5) 1.5) (float_range (-0.9) 0.9))
    (fun (x, y) ->
      let value, grad = grad_of structured_src "g" in
      let args = [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 5 ] in
      match grad args with
      | [ dx; dy ] ->
          close ~tol:1e-3
            (fd (fun x -> value [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 5 ]) x)
            dx
          && close ~tol:1e-3
               (fd (fun y -> value [ Interp.Aflt x; Interp.Aflt y; Interp.Aint 5 ]) y)
               dy
      | _ -> false)

let test_forward_equals_reverse () =
  let prog = Parser.parse_program structured_src in
  let fwd_x = Forward.differentiate prog "g" ~wrt:"x" in
  let fwd_y = Forward.differentiate prog "g" ~wrt:"y" in
  let prog' = Ast.add_func (Ast.add_func prog fwd_x) fwd_y in
  Typecheck.check_program prog';
  let _, grad = grad_of structured_src "g" in
  let args = [ Interp.Aflt 1.1; Interp.Aflt 0.3; Interp.Aint 6 ] in
  let dxf = Interp.run_float ~prog:prog' ~func:fwd_x.Ast.fname args in
  let dyf = Interp.run_float ~prog:prog' ~func:fwd_y.Ast.fname args in
  (match grad args with
  | [ dx; dy ] ->
      check_close ~tol:1e-10 "forward = reverse (x)" dx dxf;
      check_close ~tol:1e-10 "forward = reverse (y)" dy dyf
  | _ -> Alcotest.fail "expected two gradients")

let test_array_param_gradient () =
  let src =
    {|func f(a: f64[], n: int): f64 {
        var s: f64 = 0.0;
        for i in 0 .. n { s = s + a[i] * a[i] * itof(i + 1); }
        return s;
      }|}
  in
  let prog = Parser.parse_program src in
  let g = Reverse.differentiate prog "f" in
  let prog' = Ast.add_func prog g in
  let a = [| 0.5; -1.5; 2.0 |] in
  let d = Array.make 3 0. in
  ignore
    (Interp.run ~prog:prog' ~func:g.Ast.fname
       [ Interp.Afarr a; Interp.Aint 3; Interp.Afarr d ]);
  Array.iteri
    (fun i di ->
      (* d/da_i = 2 a_i (i+1) *)
      check_close ~tol:1e-10 (Printf.sprintf "da[%d]" i)
        (2. *. a.(i) *. float_of_int (i + 1))
        di)
    d

let test_input_restoration () =
  (* The store-all adjoint must restore mutated inputs on the way back. *)
  let src =
    {|func f(a: f64[], n: int): f64 {
        var s: f64 = 0.0;
        for i in 0 .. n { a[i] = a[i] * 2.0; s = s + a[i]; }
        return s;
      }|}
  in
  let prog = Parser.parse_program src in
  let g = Reverse.differentiate prog "f" in
  let prog' = Ast.add_func prog g in
  let a = [| 1.; 2.; 3. |] in
  let d = Array.make 3 0. in
  ignore
    (Interp.run ~prog:prog' ~func:g.Ast.fname
       [ Interp.Afarr a; Interp.Aint 3; Interp.Afarr d ]);
  Alcotest.(check bool) "inputs restored" true (a = [| 1.; 2.; 3. |]);
  Array.iter (fun di -> check_close ~tol:1e-12 "da = 2" 2. di) d

let test_self_referencing_updates () =
  (* x = x*x + x exercises correct adjoint of overwritten variables. *)
  let src =
    {|func f(x: f64): f64 {
        var t: f64 = x;
        t = t * t + t;
        t = t * t + t;
        return t;
      }|}
  in
  let value, grad = grad_of src "f" in
  let x0 = 0.3 in
  check_close "self ref"
    (fd (fun x -> value [ Interp.Aflt x ]) x0)
    (List.hd (grad [ Interp.Aflt x0 ]))

let test_activity_identical_gradients () =
  let prog = Parser.parse_program structured_src in
  let run use_activity =
    let g = Reverse.differentiate ~use_activity prog "g" in
    let prog' = Ast.add_func prog g in
    let r =
      Interp.run ~prog:prog' ~func:g.Ast.fname
        [ Interp.Aflt 0.8; Interp.Aflt 0.5; Interp.Aint 6;
          Interp.Aflt 0.; Interp.Aflt 0. ]
    in
    List.map (fun (_, v) -> Builtins.as_float v) r.Interp.outs
  in
  Alcotest.(check bool) "same gradients with activity" true (run true = run false)

let test_activity_analysis_classification () =
  let src =
    {|func f(x: f64, y: f64): f64 {
        var used: f64 = x * 2.0;
        var unused: f64 = y * 3.0;
        var fromconst: f64 = 1.0;
        fromconst = fromconst + 1.0;
        return used;
      }|}
  in
  let prog = Parser.parse_program src in
  let f = Ast.func_exn prog "f" in
  let a =
    Activity.analyze ~func:f ~independents:[ "x"; "y" ] ~dependents:[ "used" ]
  in
  Alcotest.(check bool) "used active" true (Activity.active a "used");
  Alcotest.(check bool) "x active" true (Activity.active a "x");
  Alcotest.(check bool) "unused not useful" false (Activity.useful a "unused");
  Alcotest.(check bool) "fromconst not varied" false
    (Activity.varied a "fromconst");
  Alcotest.(check bool) "y varied but not active" true
    (Activity.varied a "y" && not (Activity.active a "y"))

let test_reverse_requirements () =
  let reject src =
    let prog = Parser.parse_program src in
    try
      ignore (Reverse.differentiate prog "f");
      false
    with Reverse.Error _ -> true
  in
  Alcotest.(check bool) "int return" true
    (reject "func f(x: f64): int { return 1; }");
  Alcotest.(check bool) "out param" true
    (reject "func f(x: f64, out r: f64): f64 { r = x; return x; }");
  Alcotest.(check bool) "non-tail return" true
    (reject
       "func f(x: f64): f64 { if (x > 0.0) { return x; } return -x; }");
  Alcotest.(check bool) "no return" true
    (reject "func f(x: f64): f64 { var t: f64 = x; t = t + 1.0; }")

let test_hooks_fire_per_assignment () =
  let src =
    {|func f(x: f64): f64 {
        var a: f64 = x * 2.0;
        var b: f64 = a + 1.0;
        return b * b;
      }|}
  in
  let prog = Parser.parse_program src in
  let seen = ref [] in
  let hooks =
    {
      Reverse.no_hooks with
      Reverse.on_assign =
        (fun ctx ->
          seen := ctx.Reverse.lhs_base :: !seen;
          []);
    }
  in
  ignore (Reverse.differentiate ~hooks prog "f");
  (* assignments: a (decl init), b (decl init), _ret = b*b; hooks fire in
     source order during generation *)
  Alcotest.(check (list string)) "hook order" [ "a"; "b"; "_ret" ]
    (List.rev !seen)

let test_hook_extra_params_and_epilogue () =
  let src = "func f(x: f64): f64 { var t: f64 = x * x; return t; }" in
  let prog = Parser.parse_program src in
  let hooks =
    {
      Reverse.extra_params =
        [ { Ast.pname = "_count"; pty = Ast.Tscalar Ast.Sint; pmode = Ast.Out } ];
      prologue = (fun _ -> []);
      on_assign =
        (fun _ ->
          [ Ast.Assign (Ast.Lvar "_count",
                        Ast.Binop (Ast.Add, Ast.Var "_count", Ast.Iconst 1)) ]);
      epilogue = (fun _ -> []);
    }
  in
  let g = Reverse.differentiate ~hooks prog "f" in
  let prog' = Ast.add_func prog g in
  Typecheck.check_program prog';
  let r =
    Interp.run ~prog:prog' ~func:g.Ast.fname
      [ Interp.Aflt 2.; Interp.Aflt 0.; Interp.Aint 0 ]
  in
  (* two float assignments fire the hook: [t = x*x] and the synthetic
     return copy [_ret = t] *)
  Alcotest.(check bool) "hook statements executed" true
    (List.assoc "_count" r.Interp.outs = Builtins.I 2)

let test_hook_name_collision_rejected () =
  let src = "func f(_fp_error: f64): f64 { return _fp_error; }" in
  let prog = Parser.parse_program src in
  Alcotest.(check bool) "collision detected" true
    (try
       ignore
         (Cheffp_core.Estimate.estimate_error ~prog ~func:"f" ());
       false
     with Cheffp_core.Estimate.Error _ -> true)

let test_generated_code_roundtrips () =
  let prog = Parser.parse_program structured_src in
  let g = Reverse.differentiate prog "g" in
  let printed = Pp.func_to_string g in
  let reparsed = Parser.parse_program ("func dummy(): f64 { return 0.0; }\n" ^ printed) in
  Alcotest.(check bool) "generated code reparses" true
    (match Ast.find_func reparsed g.Ast.fname with Some _ -> true | None -> false)

let test_inlined_function_differentiation () =
  let src =
    {|func cube(v: f64): f64 { return v * v * v; }
      func f(x: f64): f64 { return cube(sin(x)) + cube(x); }|}
  in
  let value, grad = grad_of src "f" in
  let x0 = 0.8 in
  check_close "through inlining"
    (fd (fun x -> value [ Interp.Aflt x ]) x0)
    (List.hd (grad [ Interp.Aflt x0 ]))

let test_forward_requirements () =
  let prog =
    Parser.parse_program
      {|func f(a: f64[], n: int): f64 {
          for i in 0 .. n { a[i] = 2.0 * a[i]; }
          return a[0];
        }|}
  in
  Alcotest.(check bool) "forward rejects array writes" true
    (try
       ignore (Forward.differentiate prog "f" ~wrt:"a");
       false
     with Forward.Error _ -> true)

let test_derivative_params_preview () =
  let prog =
    Parser.parse_program
      "func f(x: f64, n: int, a: f64[]): f64 { return x + a[0]; }"
  in
  let ps = Reverse.derivative_params (Ast.func_exn prog "f") in
  Alcotest.(check (list string)) "names" [ "_d_x"; "_d_a" ]
    (List.map (fun p -> p.Ast.pname) ps);
  Alcotest.(check bool) "modes out" true
    (List.for_all (fun p -> p.Ast.pmode = Ast.Out) ps)

(* Loop bounds: a reversed loop whose bounds read nothing its body
   writes re-evaluates them instead of popping them from the tape. *)
let rec bound_pushes acc = function
  | Ast.Push (Ast.Lvar v)
    when String.starts_with ~prefix:"_lo" v || String.starts_with ~prefix:"_hi" v ->
      v :: acc
  | Ast.If (_, a, b) -> List.fold_left bound_pushes (List.fold_left bound_pushes acc a) b
  | Ast.For { body; _ } | Ast.While (_, body) -> List.fold_left bound_pushes acc body
  | _ -> acc

let rec reversed_loops acc = function
  | Ast.For { down = true; lo; hi; body; _ } ->
      List.fold_left reversed_loops ((lo, hi) :: acc) body
  | Ast.For { body; _ } | Ast.While (_, body) -> List.fold_left reversed_loops acc body
  | Ast.If (_, a, b) -> List.fold_left reversed_loops (List.fold_left reversed_loops acc a) b
  | _ -> acc

let test_untaped_loop_bounds () =
  let module B = Cheffp_benchmarks in
  let arclength = Reverse.differentiate B.Arclength.program B.Arclength.func_name in
  Alcotest.(check (list string)) "arclength: no bound pushed" []
    (List.fold_left bound_pushes [] arclength.Ast.body);
  Alcotest.(check bool) "arclength: inner loop replays 1 .. 6" true
    (List.mem (Ast.Iconst 1, Ast.Iconst 6)
       (List.fold_left reversed_loops [] arclength.Ast.body));
  let hpccg = Reverse.differentiate B.Hpccg.program B.Hpccg.func_name in
  Alcotest.(check (list string)) "hpccg: no bound pushed" []
    (List.fold_left bound_pushes [] hpccg.Ast.body);
  Alcotest.(check bool) "hpccg: SpMV loop replays row_ptr bounds" true
    (List.exists
       (function Ast.Idx ("row_ptr", _), Ast.Idx ("row_ptr", _) -> true | _ -> false)
       (List.fold_left reversed_loops [] hpccg.Ast.body))

let test_written_bound_taped () =
  (* The body writes [m], which the bound reads: re-evaluating it after
     the loop would replay no iteration at all. s = sum over i < n of
     x * (i + (n - i)), so ds/dx = n * n. *)
  let src =
    {|func f(x: f64, n: int): f64 {
        var m: int = n;
        var s: f64 = 0.0;
        for i in 0 .. m {
          s = s + x * itof(i + m);
          m = m - 1;
        }
        return s;
      }|}
  in
  let prog = Parser.parse_program src in
  let g = Reverse.differentiate prog "f" in
  Alcotest.(check bool) "bound taped" true (List.fold_left bound_pushes [] g.Ast.body <> []);
  let module E = Cheffp_core.Estimate in
  let est = E.estimate_error ~prog ~func:"f" () in
  let args = [ Interp.Aflt 0.3; Interp.Aint 5 ] in
  let compiled = E.run est args and interpreted = E.run_interpreted est args in
  Alcotest.(check (list (pair string (float 0.)))) "compiled = interpreted"
    interpreted.E.gradients compiled.E.gradients;
  Alcotest.(check (float 0.)) "ds/dx = n * n" 25. (List.assoc "x" compiled.E.gradients)

let () =
  Alcotest.run "ad"
    [
      ( "deriv-rules",
        [
          Alcotest.test_case "intrinsics vs fd" `Quick test_intrinsic_rules;
          Alcotest.test_case "piecewise constants" `Quick
            test_piecewise_constant_rules;
          Alcotest.test_case "cast surrogate" `Quick test_cast_smooth_surrogate;
          Alcotest.test_case "missing rule rejected" `Quick
            test_unknown_intrinsic_rejected;
          Alcotest.test_case "alias" `Quick test_deriv_alias;
        ] );
      ( "reverse",
        [
          Alcotest.test_case "structured vs fd" `Quick
            test_reverse_vs_fd_structured;
          QCheck_alcotest.to_alcotest qcheck_reverse_vs_fd;
          Alcotest.test_case "array gradients" `Quick test_array_param_gradient;
          Alcotest.test_case "input restoration" `Quick test_input_restoration;
          Alcotest.test_case "self-referencing updates" `Quick
            test_self_referencing_updates;
          Alcotest.test_case "requirements" `Quick test_reverse_requirements;
          Alcotest.test_case "generated code reparses" `Quick
            test_generated_code_roundtrips;
          Alcotest.test_case "through inlining" `Quick
            test_inlined_function_differentiation;
          Alcotest.test_case "derivative params preview" `Quick
            test_derivative_params_preview;
          Alcotest.test_case "untaped loop bounds" `Quick test_untaped_loop_bounds;
          Alcotest.test_case "written bound taped" `Quick test_written_bound_taped;
        ] );
      ( "forward",
        [
          Alcotest.test_case "forward = reverse" `Quick
            test_forward_equals_reverse;
          Alcotest.test_case "requirements" `Quick test_forward_requirements;
        ] );
      ( "activity",
        [
          Alcotest.test_case "identical gradients" `Quick
            test_activity_identical_gradients;
          Alcotest.test_case "classification" `Quick
            test_activity_analysis_classification;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "fire per assignment" `Quick
            test_hooks_fire_per_assignment;
          Alcotest.test_case "extra params & statements" `Quick
            test_hook_extra_params_and_epilogue;
          Alcotest.test_case "name collision" `Quick
            test_hook_name_collision_rejected;
        ] );
    ]
