open Cheffp_ir
open Ast
module Reverse = Cheffp_ad.Reverse
module Trace = Cheffp_obs.Trace

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type options = {
  per_variable : bool;
  track_iterations : [ `No | `Outermost | `Innermost | `Loop of string ];
  track_ranges : bool;
  use_activity : bool;
  optimize : bool;
  accumulation : [ `Absolute | `Signed ];
}

let default_options =
  {
    per_variable = true;
    track_iterations = `No;
    track_ranges = false;
    use_activity = false;
    optimize = true;
    accumulation = `Absolute;
  }

(* Per-variable recordings of one execution. The generated code writes
   [totals], [lo] and [hi] itself: they are passed as the [_chef_tot],
   [_chef_lo] and [_chef_hi] out-array parameters, indexed by the
   variable's registry id. Only the per-iteration table, keyed by a
   runtime loop counter, is fed through the [__chef_reg_iter] callback. *)
type recording = {
  totals : float array;
  lo : float array;
  hi : float array;
  iters : (int * int, float ref) Hashtbl.t;
}

let recording_create n =
  {
    totals = Array.make n 0.;
    lo = Array.make n Float.infinity;
    hi = Array.make n Float.neg_infinity;
    iters = Hashtbl.create 64;
  }

let tot_param = "_chef_tot"
let lo_param = "_chef_lo"
let hi_param = "_chef_hi"

(* The [__chef_reg_iter] callback is registered in a builtins table that
   may be shared and long-lived (the serve daemon keeps one across all
   requests). It must not close over any particular execution's
   recording: two estimates built against the same table would clobber
   each other's recordings. Instead it dispatches through a domain-local
   slot that [run] points at the executing run's recording for the
   duration of the execution (each execution stays on one domain, and
   pool workers run one task at a time, so the slot cannot be observed
   mid-swap). *)
let active_recording : recording option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_recording rc f =
  let slot = Domain.DLS.get active_recording in
  let saved = !slot in
  slot := Some rc;
  Fun.protect ~finally:(fun () -> slot := saved) f

let current_recording () =
  match !(Domain.DLS.get active_recording) with
  | Some rc -> rc
  | None -> failwith "__chef_reg_iter called outside Estimate.run"

type t = {
  source_func : func;
  model : Model.t;
  accumulation : [ `Absolute | `Signed ];
  grad : func;
  prog : program;
  builtins : Builtins.t;
  compiled : Compile.t;
  names : string array;  (** source variable of each registry id *)
  per_variable : bool;
  track_ranges : bool;
  track_iterations : bool;
  scalar_grad_params : (string * string) list;  (** original -> adjoint out *)
  array_grad_params : (string * string) list;
  error_param : string;
  local_array_sizes : expr list;  (** of the generated function *)
  scalar_decl_count : int;
}

type report = {
  total_error : float;
  gradients : (string * float) list;
  array_gradients : (string * float array) list;
  per_variable : (string * float) list;
  per_iteration : (string * (int * float) list) list;
  ranges : (string * (float * float)) list;
  stack_peak_bytes : int;
  analysis_bytes : int;
}

let f64s = Sflt Cheffp_precision.Fp.F64

(* Span taxonomy (DESIGN.md §9): the one-off generation work is
   "estimate.build" with one child per phase — "estimate.ad" (reverse
   differentiation with the error hooks spliced in), "estimate.optimize",
   "estimate.typecheck", "estimate.compile" — and every execution of the
   generated analysis is "estimate.run". *)
let estimate_error_inner ?(model = Model.taylor ())
    ?(options = default_options) ?deriv ?builtins ~prog ~func () =
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let registry_id var =
    match Hashtbl.find_opt ids var with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids var id;
        id
  in
  (* Each registry entry the generated code updates lives in an f64
     local for the whole run: loaded from its out array in the
     prologue, stored back once in the epilogue. [slots] lists
     (array, id, local) in creation order. *)
  let slots = ref [] in
  let slot (info : Reverse.info) arr id =
    match List.find_opt (fun (a, i, _) -> a = arr && i = id) !slots with
    | Some (_, _, local) -> local
    | None ->
        let local = info.Reverse.fresh (Printf.sprintf "%s%d" arr id) in
        slots := (arr, id, local) :: !slots;
        local
  in
  let acc_name = ref None in
  let get_acc (info : Reverse.info) =
    match !acc_name with
    | Some n -> n
    | None ->
        let n = info.Reverse.fresh "_chef_acc" in
        acc_name := Some n;
        n
  in
  let on_assign (ctx : Reverse.hook_ctx) =
    let info = ctx.Reverse.info in
    match (ctx.Reverse.lhs_base = info.Reverse.ret_var, ctx.Reverse.rhs) with
    | true, Var _ ->
        (* The synthetic return variable receiving a bare copy is not a
           user-level rounding event; charging it would double-count the
           error of the copied variable. *)
        []
    | _ ->
    let acc = get_acc info in
    let raw =
      model.Model.assign_error ~adj:(Var ctx.Reverse.adjoint_var)
        ~value:(Var ctx.Reverse.value_var) ~var:ctx.Reverse.lhs_base
    in
    let raw = Optimize.fold_expr raw in
    (* A model returning a literal zero for this variable contributes no
       code at all (Algorithm 2 leaves unmapped variables untouched). *)
    if raw = Fconst 0. then []
    else begin
      let e = info.Reverse.fresh "_e" in
      let id = registry_id ctx.Reverse.lhs_base in
      let contribution =
        match options.accumulation with
        | `Absolute -> Call ("fabs", [ raw ])
        | `Signed -> raw
      in
      [
        Decl { name = e; dty = Dscalar f64s; init = Some contribution };
        Assign (Lvar acc, Binop (Add, Var acc, Var e));
      ]
      @ (if options.per_variable then
           let tot = slot info tot_param id in
           [ Assign (Lvar tot, Binop (Add, Var tot, Var e)) ]
         else [])
      @ (if options.track_ranges then
           let v = Var ctx.Reverse.value_var in
           let lo = slot info lo_param id in
           let hi = slot info hi_param id in
           [
             If (Binop (Lt, v, Var lo), [ Assign (Lvar lo, v) ], []);
             If (Binop (Gt, v, Var hi), [ Assign (Lvar hi, v) ], []);
           ]
         else [])
      @
      match options.track_iterations with
      | `No -> []
      | (`Outermost | `Innermost | `Loop _) as which -> (
          let loops = ctx.Reverse.enclosing_loops in
          let counter =
            match which with
            | `Outermost -> (
                match List.rev loops with c :: _ -> Some c | [] -> None)
            | `Innermost -> ( match loops with c :: _ -> Some c | [] -> None)
            | `Loop name -> if List.mem name loops then Some name else None
          in
          match counter with
          | None -> []
          | Some c ->
              let sens =
                Call
                  ( "fabs",
                    [
                      Binop
                        (Mul, Var ctx.Reverse.adjoint_var, Var ctx.Reverse.value_var);
                    ] )
              in
              [ Call_stmt ("__chef_reg_iter", [ Iconst id; Var c; sens ]) ])
    end
  in
  let registry_param name = { pname = name; pty = Tarr f64s; pmode = Out } in
  let hooks =
    {
      Reverse.extra_params =
        { pname = "_fp_error"; pty = Tscalar f64s; pmode = Out }
        :: (if options.per_variable then [ registry_param tot_param ] else [])
        @ (if options.track_ranges then
             [ registry_param lo_param; registry_param hi_param ]
           else []);
      prologue =
        (fun info ->
          Decl { name = get_acc info; dty = Dscalar f64s; init = None }
          :: List.rev_map
               (fun (arr, id, local) ->
                 Decl
                   { name = local; dty = Dscalar f64s; init = Some (Idx (arr, Iconst id)) })
               !slots);
      on_assign;
      epilogue =
        (fun info ->
          let acc = get_acc info in
          Assign (Lvar "_fp_error", Binop (Add, Var "_fp_error", Var acc))
          :: List.rev_map
               (fun (arr, id, local) -> Assign (Lidx (arr, Iconst id), Var local))
               !slots);
    }
  in
  let grad =
    try
      Trace.with_span "estimate.ad" (fun () ->
          Reverse.differentiate ?deriv ~hooks
            ~use_activity:options.use_activity prog func)
    with Reverse.Error m -> err "%s" m
  in
  let names = Array.make (Hashtbl.length ids) "" in
  Hashtbl.iter (fun name id -> names.(id) <- name) ids;
  let track_iterations = options.track_iterations <> `No in
  if track_iterations then
    Builtins.register builtins "__chef_reg_iter"
      { Builtins.args = [ Builtins.Kint; Builtins.Kint; Builtins.Kflt ];
        ret = Builtins.Kflt; cls = Cheffp_precision.Cost.Basic; approx = false }
      (fun a ->
        let rc = current_recording () in
        let id = Builtins.as_int a.(0)
        and iter = Builtins.as_int a.(1)
        and s = Builtins.as_float a.(2) in
        (match Hashtbl.find_opt rc.iters (id, iter) with
        | Some r -> r := !r +. s
        | None -> Hashtbl.replace rc.iters (id, iter) (ref s));
        Builtins.F s);
  model.Model.setup builtins;
  let f = func_exn prog func in
  (* Analysis bytes count the top-level scalars the generator declares
     and the optimizer keeps. The registry slots stand in for the
     registry arrays, which are not analysis bytes either; temporaries
     the optimizer names hold values the generated code would otherwise
     recompute, like registers. *)
  let counted =
    List.filter_map
      (function
        | Decl { name; dty = Dscalar _; _ }
          when not (List.exists (fun (_, _, local) -> local = name) !slots) ->
            Some name
        | _ -> None)
      grad.body
  in
  let grad =
    if options.optimize then
      Trace.with_span "estimate.optimize" (fun () ->
          Optimize.optimize_func grad)
    else grad
  in
  let prog' = add_func prog grad in
  (try
     Trace.with_span "estimate.typecheck" (fun () ->
         Typecheck.check_program ~builtins prog')
   with Typecheck.Error m -> err "generated code does not typecheck: %s" m);
  let compiled =
    Trace.with_span "estimate.compile" (fun () ->
        Compile.compile ~builtins ~optimize:false ~prog:prog' ~func:grad.fname
          ())
  in
  (* Positional mapping original param -> derivative out param. *)
  let n_orig = List.length f.params in
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  let deriv_params = drop n_orig grad.params in
  let scalar_grads, array_grads, _ =
    List.fold_left
      (fun (sc, ar, rest) p ->
        match p.pty with
        | Tscalar (Sflt _) -> (
            match rest with
            | d :: rest -> ((p.pname, d.pname) :: sc, ar, rest)
            | [] -> assert false)
        | Tarr (Sflt _) -> (
            match rest with
            | d :: rest -> (sc, (p.pname, d.pname) :: ar, rest)
            | [] -> assert false)
        | _ -> (sc, ar, rest))
      ([], [], deriv_params) f.params
  in
  let local_array_sizes =
    List.filter_map
      (function
        | Decl { dty = Darr (_, size); _ } -> Some size
        | _ -> None)
      grad.body
  in
  let scalar_decl_count =
    List.length
      (List.filter
         (function
           | Decl { name; dty = Dscalar _; _ } -> List.mem name counted
           | _ -> false)
         grad.body)
  in
  {
    source_func = f;
    model;
    accumulation = options.accumulation;
    grad;
    prog = prog';
    builtins;
    compiled;
    names;
    per_variable = options.per_variable;
    track_ranges = options.track_ranges;
    track_iterations;
    scalar_grad_params = List.rev scalar_grads;
    array_grad_params = List.rev array_grads;
    error_param = "_fp_error";
    local_array_sizes;
    scalar_decl_count;
  }

let estimate_error ?model ?options ?deriv ?builtins ~prog ~func () =
  Trace.with_span "estimate.build" (fun () ->
      if Trace.enabled () then Trace.add_attr "func" (Trace.Str func);
      estimate_error_inner ?model ?options ?deriv ?builtins ~prog ~func ())

let generated t = t.grad
let program t = t.prog

(* Evaluate an int expression over the integer parameter bindings (local
   array sizes reference only parameters, enforced by Normalize). *)
let rec int_eval env = function
  | Iconst n -> n
  | Var v -> (
      match List.assoc_opt v env with
      | Some n -> n
      | None -> err "size expression references non-integer %S" v)
  | Binop (op, a, b) -> (
      let x = int_eval env a and y = int_eval env b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div -> x / y
      | Mod -> x mod y
      | _ -> err "unsupported operator in size expression")
  | Unop (Neg, e) -> -int_eval env e
  | e -> err "unsupported size expression %s" (Pp.expr_to_string e)

(* Per-run bundle: the full argument vector, the static byte account,
   the float inputs paired with their derivative buffers (for the
   input term of the error model), and the run's own recording. *)
type run_inputs = {
  full : Interp.arg list;
  recording : recording;
  static_bytes : int;
  scalar_inputs : (string * float) list;
  array_inputs : (string * float array * float array) list;
      (* name, input values, derivative buffer *)
}

let assemble_args t (args : Interp.arg list) =
  let params = t.source_func.params in
  if List.length args <> List.length params then
    err "function %S expects %d arguments, got %d" t.source_func.fname
      (List.length params) (List.length args);
  let scalar_inputs =
    List.filter_map
      (fun (p, arg) ->
        match (p.pty, arg) with
        | Tscalar (Sflt _), Interp.Aflt x -> Some (p.pname, x)
        | _ -> None)
      (List.combine params args)
  in
  let array_inputs = ref [] in
  let deriv_args =
    List.filter_map
      (fun (p, arg) ->
        match (p.pty, arg) with
        | Tscalar (Sflt _), _ -> Some (Interp.Aflt 0., 0)
        | Tarr (Sflt _), Interp.Afarr a ->
            let n = Array.length a in
            let d = Array.make n 0. in
            array_inputs := (p.pname, a, d) :: !array_inputs;
            Some (Interp.Afarr d, 8 * n)
        | Tarr (Sflt _), _ -> err "array argument expected for %S" p.pname
        | _ -> None)
      (List.combine params args)
  in
  (* The registry arrays are passed by reference and written in place;
     like the error output, they are not part of the analysis bytes. *)
  let recording = recording_create (Array.length t.names) in
  let full =
    args @ List.map fst deriv_args @ [ Interp.Aflt 0. ]
    @ (if t.per_variable then [ Interp.Afarr recording.totals ] else [])
    @ (if t.track_ranges then
         [ Interp.Afarr recording.lo; Interp.Afarr recording.hi ]
       else [])
  in
  let deriv_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 deriv_args in
  let int_env =
    List.filter_map
      (fun (p, arg) ->
        match (p.pty, arg) with
        | Tscalar Sint, Interp.Aint n -> Some (p.pname, n)
        | _ -> None)
      (List.combine params args)
  in
  let local_array_bytes =
    List.fold_left
      (fun acc size -> acc + (8 * int_eval int_env size))
      0 t.local_array_sizes
  in
  {
    full;
    recording;
    static_bytes = deriv_bytes + local_array_bytes + (8 * t.scalar_decl_count);
    scalar_inputs;
    array_inputs = List.rev !array_inputs;
  }

let build_report t (result : Interp.result) (inputs : run_inputs) =
  let rc = inputs.recording in
  let out name =
    match List.assoc_opt name result.Interp.outs with
    | Some (Builtins.F x) -> x
    | Some (Builtins.I n) -> float_of_int n
    | None -> err "missing output %S" name
  in
  let gradients =
    List.map (fun (orig, adj) -> (orig, out adj)) t.scalar_grad_params
  in
  (* Input contributions (the x_i that are parameters in Eq. 2). *)
  let wrap =
    match t.accumulation with `Absolute -> Float.abs | `Signed -> fun x -> x
  in
  let input_terms =
    List.map
      (fun (name, value) ->
        let adj =
          match List.assoc_opt name gradients with Some a -> a | None -> 0.
        in
        (name, wrap (t.model.Model.input_error ~adj ~value ~var:name)))
      inputs.scalar_inputs
    @ List.map
        (fun (name, a, d) ->
          let acc = ref 0. in
          Array.iteri
            (fun i v ->
              acc :=
                !acc
                +. wrap (t.model.Model.input_error ~adj:d.(i) ~value:v ~var:name))
            a;
          (name, !acc))
        inputs.array_inputs
  in
  let input_total = List.fold_left (fun acc (_, e) -> acc +. e) 0. input_terms in
  let per_variable =
    Array.to_list (Array.mapi (fun id e -> (t.names.(id), e)) rc.totals)
    @ List.filter (fun (_, e) -> e <> 0. || true) input_terms
    |> List.fold_left
         (fun acc (name, e) ->
           match List.assoc_opt name acc with
           | Some prev -> (name, prev +. e) :: List.remove_assoc name acc
           | None -> (name, e) :: acc)
         []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let per_iteration =
    let tbl : (string, (int * float) list ref) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (id, iter) v ->
        let name = t.names.(id) in
        match Hashtbl.find_opt tbl name with
        | Some l -> l := (iter, !v) :: !l
        | None -> Hashtbl.replace tbl name (ref [ (iter, !v) ]))
      rc.iters;
    Hashtbl.fold
      (fun name l acc ->
        (name, List.sort (fun (a, _) (b, _) -> compare a b) !l) :: acc)
      tbl []
    |> List.sort compare
  in
  let array_gradients =
    List.map (fun (name, _, d) -> (name, d)) inputs.array_inputs
  in
  (* Observed value ranges: assigned variables from the registry, inputs
     from the argument values themselves. *)
  let ranges =
    let assigned =
      Array.to_list
        (Array.mapi
           (fun id lo -> (t.names.(id), (lo, rc.hi.(id))))
           rc.lo)
      |> List.filter (fun (_, (lo, hi)) -> lo <= hi)
    in
    let scalars =
      List.map (fun (name, v) -> (name, (v, v))) inputs.scalar_inputs
    in
    let arrays =
      List.filter_map
        (fun (name, a, _) ->
          if Array.length a = 0 then None
          else
            Some
              ( name,
                ( Array.fold_left Float.min a.(0) a,
                  Array.fold_left Float.max a.(0) a ) ))
        inputs.array_inputs
    in
    let merge acc (name, (lo, hi)) =
      match List.assoc_opt name acc with
      | Some (lo', hi') ->
          (name, (Float.min lo lo', Float.max hi hi'))
          :: List.remove_assoc name acc
      | None -> (name, (lo, hi)) :: acc
    in
    List.fold_left merge [] (assigned @ scalars @ arrays) |> List.sort compare
  in
  {
    total_error = out t.error_param +. input_total;
    gradients;
    array_gradients;
    ranges;
    per_variable;
    per_iteration;
    stack_peak_bytes = result.Interp.stack_peak_bytes;
    analysis_bytes = result.Interp.stack_peak_bytes + inputs.static_bytes;
  }

(* Runs [f] with the DLS slot pointed at this run's recording, when the
   generated code calls [__chef_reg_iter]. *)
let recorded t inputs f =
  if t.track_iterations then with_recording inputs.recording f else f ()

let run t args =
  Trace.with_span "estimate.run" (fun () ->
      let inputs = assemble_args t args in
      let result =
        recorded t inputs (fun () -> Compile.run t.compiled inputs.full)
      in
      let report = build_report t result inputs in
      if Trace.enabled () then begin
        Trace.add_attr "func" (Trace.Str t.source_func.fname);
        Trace.add_attr "total_error" (Trace.Float report.total_error);
        Trace.add_attr "analysis_bytes" (Trace.Int report.analysis_bytes)
      end;
      report)

let run_sampled t ~plan ~seed ~samples =
  if samples < 1 then invalid_arg "Estimate.run_sampled: samples must be >= 1";
  Trace.with_span "estimate.run_sampled" (fun () ->
      if Trace.enabled () then
        Trace.add_attr "samples" (Trace.Int samples);
      let q = Quantile.create () in
      (* Sequential: each sample is one scalar analysis. The batched
         input-sweep path (Sampling / Search) is where parallel sampling
         lives. *)
      for i = 0 to samples - 1 do
        let args = Sampling.draw plan ~seed i in
        Quantile.add q (run t args).total_error
      done;
      Quantile.summary q)

let run_interpreted t args =
  let inputs = assemble_args t args in
  let result =
    recorded t inputs (fun () ->
        Interp.run ~builtins:t.builtins ~prog:t.prog ~func:t.grad.fname
          inputs.full)
  in
  build_report t result inputs
