(* paper-analysis: repeated CHEF-FP analyses of the five paper kernels
   (Figs. 4-8) at the `cheffp analyze` defaults, plus the layer ledger of
   that hot path: front end, original run, gradient, error arithmetic,
   per-variable attribution and the ADAPT tape baseline (Table II). *)

open Cheffp_ir
module B = Cheffp_benchmarks
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Adapt = Cheffp_adapt.Adapt
module Cost = Cheffp_precision.Cost

type spec = {
  name : string;
  source : string;
  func : string;
  inputs : small:bool -> Interp.arg list * (Cheffp_adapt.Tape.t -> Cheffp_adapt.Tape.num);
      (** generated arguments and the matching ADAPT functor run; [small]
          is the reduced size the interpreter cross-check uses *)
}

let specs ~seed =
  let seed = Int64.of_int seed in
  [
    {
      name = "arclength";
      source = B.Arclength.source;
      func = B.Arclength.func_name;
      inputs =
        (fun ~small ->
          let n = if small then 200 else 30_000 in
          ( B.Arclength.args ~n,
            fun tape ->
              let module N = (val Adapt.num tape) in
              let module A = B.Arclength.Native (N) in
              A.run ~n ));
    };
    {
      name = "simpsons";
      source = B.Simpsons.source;
      func = B.Simpsons.func_name;
      inputs =
        (fun ~small ->
          let a = 0. and b = Float.pi and n = if small then 200 else 100_000 in
          ( B.Simpsons.args ~a ~b ~n,
            fun tape ->
              let module N = (val Adapt.num tape) in
              let module S = B.Simpsons.Native (N) in
              S.run ~a ~b ~n ));
    };
    {
      name = "kmeans";
      source = B.Kmeans.source;
      func = B.Kmeans.func_name;
      inputs =
        (fun ~small ->
          let w =
            B.Kmeans.generate ~seed ~npoints:(if small then 40 else 10_000) ()
          in
          ( B.Kmeans.args w,
            fun tape ->
              let module N = (val Adapt.num tape) in
              let module K = B.Kmeans.Native (N) in
              K.run w ));
    };
    {
      name = "hpccg";
      source = B.Hpccg.source;
      func = B.Hpccg.func_name;
      inputs =
        (fun ~small ->
          let w =
            if small then B.Hpccg.generate ~nx:4 ~ny:4 ~nz:3 ~max_iter:3 ()
            else B.Hpccg.generate ~nx:20 ~ny:30 ~nz:4 ~max_iter:15 ()
          in
          ( B.Hpccg.args w,
            fun tape ->
              let module N = (val Adapt.num tape) in
              let module H = B.Hpccg.Native (N) in
              H.run w ));
    };
    {
      name = "blackscholes";
      source = B.Blackscholes.source B.Blackscholes.Exact;
      func = B.Blackscholes.func_name;
      inputs =
        (fun ~small ->
          let w = B.Blackscholes.generate ~seed ~n:(if small then 16 else 10_000) () in
          ( B.Blackscholes.args w,
            fun tape ->
              let module N = (val Adapt.num tape) in
              let module S = B.Blackscholes.Native (N) in
              S.run w ));
    };
  ]

(* `cheffp analyze` defaults: adapt model at f32, per-variable
   attribution on, range tracking on. *)
let analyze_options = { E.default_options with track_ranges = true }

type kernel = {
  spec : spec;
  prog : Ast.program;
  args : Interp.arg list;
  adapt_run : Cheffp_adapt.Tape.t -> Cheffp_adapt.Tape.num;
  est : E.t;
}

(* Everything before the first timed analysis: parse, typecheck, input
   generation and Estimate.estimate_error. *)
let prepare ~builtins ~deriv spec =
  let prog = Parser.parse_program spec.source in
  Typecheck.check_program ~builtins prog;
  let args, adapt_run = spec.inputs ~small:false in
  let est =
    E.estimate_error ~model:(Model.adapt ()) ~options:analyze_options ~deriv
      ~builtins ~prog ~func:spec.func ()
  in
  { spec; prog; args; adapt_run; est }

let setup ~seed ~reps =
  Stat.repeat reps (fun () ->
      let builtins = Kit.builtins () and deriv = Kit.deriv () in
      List.map (prepare ~builtins ~deriv) (specs ~seed))

(* Independent reference: the compiled analysis must agree with the
   reference interpreter (Estimate.run_interpreted) on total error and
   gradients, at a size the interpreter finishes quickly. *)
let check_against_interp ks =
  List.iter
    (fun k ->
      let args, _ = k.spec.inputs ~small:true in
      let c = E.run k.est (Kit.copy_args args) in
      let i = E.run_interpreted k.est (Kit.copy_args args) in
      Out.check
        (Kit.same_float c.E.total_error i.E.total_error
        && Kit.same_pairs c.E.gradients i.E.gradients
        && List.for_all2
             (fun (n, x) (m, y) -> n = m && Array.for_all2 Kit.same_float x y)
             c.E.array_gradients i.E.array_gradients)
        (k.spec.name ^ ": compiled analysis differs from the interpreter"))
    ks

(* One pass: the five analyses back to back. Arguments are copied and
   the heap is collected before the clock starts. Returns the pass wall
   time and each analysis' (kernel, seconds, report). *)
let pass ks =
  let args = List.map (fun k -> Kit.copy_args k.args) ks in
  Gc.full_major ();
  let t0 = Stat.now () in
  let ops =
    List.map2
      (fun k a ->
        let r, s = Stat.time (fun () -> E.run k.est a) in
        (k, s, r))
      ks args
  in
  (Stat.now () -. t0, ops)

type loop_result = {
  pass_s : float list;
  op_s : (string * float list) list;  (** analysis times per kernel *)
}

(* Closed loop of passes for [seconds]. Every report must be
   bit-identical to the first pass's, and the summed analysis bytes must
   repeat exactly. *)
let run_loop ?(min_passes = 3) ~seconds ks =
  let first = Hashtbl.create 8 and op_s = Hashtbl.create 8 in
  let pass_s = ref [] in
  Kit.loop ~seconds ~min_passes (fun ~timed _ ->
      let s, ops = pass ks in
      if timed then pass_s := s :: !pass_s;
      let bytes = ref 0 in
      List.iter
        (fun (k, s, r) ->
          let name = k.spec.name in
          if timed then
            Hashtbl.replace op_s name
              (s :: Option.value ~default:[] (Hashtbl.find_opt op_s name));
          bytes := !bytes + r.E.analysis_bytes;
          match Hashtbl.find_opt first name with
          | None ->
              Hashtbl.replace first name r;
              Out.check true name
          | Some r0 ->
              Out.check (Kit.same_report r0 r)
                (name ^ ": analysis report differs from the first pass"))
        ops;
      Out.exact ~unit_:"bytes" "core.estimate.analysis_peak_bytes" !bytes);
  {
    pass_s = List.rev !pass_s;
    op_s = List.map (fun k -> (k.spec.name, List.rev (Hashtbl.find op_s k.spec.name))) ks;
  }

(* ---- layer ledger (traced run) ---- *)

let span name kernel f = Span.with_ (name ^ "." ^ kernel) f

(* [reps] calls of [f], each on a freshly collected heap. *)
let repeat_collected ~reps f =
  for _ = 1 to reps do
    Gc.full_major ();
    f ()
  done

(* Front end of one kernel, layer by layer, from its source text. *)
let front_end ~builtins ~deriv ~label ~source ~func =
  let prog = span "ir.parse" label (fun () -> Parser.parse_program source) in
  span "ir.typecheck" label (fun () -> Typecheck.check_program ~builtins prog);
  let g =
    span "ad.reverse" label (fun () ->
        Cheffp_ad.Reverse.differentiate ~deriv prog func)
  in
  ignore (span "ir.optimize" label (fun () -> Optimize.optimize_func g));
  let est =
    span "core.estimate.build" label (fun () ->
        E.estimate_error ~model:(Model.adapt ()) ~options:analyze_options ~deriv
          ~builtins ~prog ~func ())
  in
  let gen = E.generated est in
  ignore
    (span "ir.compile" label (fun () ->
         Compile.compile ~builtins ~optimize:false ~prog:(E.program est)
           ~func:gen.Ast.fname ()));
  Kit.count_stmts gen.Ast.body

let front_end_names =
  [ "ir.parse"; "ir.typecheck"; "ad.reverse"; "ir.optimize"; "core.estimate.build"; "ir.compile" ]

let estimate ~builtins ~deriv ~model ~options k =
  E.estimate_error ~model ~options ~deriv ~builtins ~prog:k.prog ~func:k.spec.func ()

(* Execution ledger of one kernel: [reps] runs of each variant. The
   analysis bytes of the attributed runs are summed into [bytes]. *)
let execution ~builtins ~deriv ~reps ~bytes k =
  let name = k.spec.name in
  let orig = Compile.compile ~builtins ~prog:k.prog ~func:k.spec.func () in
  let metered = Compile.compile ~builtins ~meter:true ~prog:k.prog ~func:k.spec.func () in
  repeat_collected ~reps (fun () ->
      let a = Kit.copy_args k.args in
      ignore (span "ir.run" name (fun () -> Compile.run orig a));
      let counter = Cost.Counter.create Cost.default in
      ignore (Compile.run ~counter metered (Kit.copy_args k.args));
      Out.exact ("ir.run_ops." ^ name) (Cost.Counter.ops counter));
  let no_attrib = { E.default_options with per_variable = false } in
  let variants =
    [
      ("core.estimate.gradient", estimate ~builtins ~deriv ~model:Model.zero ~options:no_attrib k);
      ("core.estimate.error", estimate ~builtins ~deriv ~model:(Model.adapt ()) ~options:no_attrib k);
      ("core.estimate.attrib", k.est);
    ]
  in
  List.iter
    (fun (label, est) ->
      repeat_collected ~reps (fun () ->
          let a = Kit.copy_args k.args in
          let r = span label name (fun () -> E.run est a) in
          if est == k.est then
            Out.exact ~unit_:"bytes" ("core.estimate.stack_peak_bytes." ^ name)
              r.E.stack_peak_bytes))
    variants;
  let a = Kit.copy_args k.args in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let r = E.run k.est a in
  Out.metric ("core.estimate.minor_words." ^ name) "words" (Gc.minor_words () -. w0);
  bytes := !bytes + r.E.analysis_bytes;
  repeat_collected ~reps (fun () ->
      span "adapt.analyze" name (fun () ->
          match Adapt.analyze k.adapt_run with
          | Ok res ->
              Out.exact ~unit_:"bytes" ("adapt.tape_bytes." ^ name) res.Adapt.tape_bytes
          | Error _ -> Out.check false (name ^ ": ADAPT ran out of memory")))

(* Front end and execution ledgers of the five kernels, [reps] samples
   of each layer. *)
let ledger ~seed ~reps =
  let builtins = Kit.builtins () and deriv = Kit.deriv () in
  let ks = List.map (prepare ~builtins ~deriv) (specs ~seed) in
  List.iter
    (fun k ->
      for _ = 1 to reps do
        Out.exact ("core.estimate.generated_stmts." ^ k.spec.name)
          (front_end ~builtins ~deriv ~label:k.spec.name ~source:k.spec.source
             ~func:k.spec.func)
      done)
    ks;
  let bytes = ref 0 in
  List.iter (execution ~builtins ~deriv ~reps ~bytes) ks;
  Out.exact ~unit_:"bytes" "core.estimate.analysis_peak_bytes" !bytes;
  List.map (fun k -> k.spec.name) ks

(* Front-end metrics of one kernel (or kernel population) label. *)
let report_front_end tbl label =
  List.iter
    (fun stem ->
      let v, n = Span.self_median tbl (stem ^ "." ^ label) in
      Out.metric ~n (stem ^ "_s." ^ label) "s" v)
    front_end_names

(* Execution metrics per kernel plus their geometric means. *)
let report_execution tbl names =
  let per_kernel stem =
    List.map (fun kn -> (kn, Span.self_median tbl (stem ^ "." ^ kn))) names
  in
  let geo name unit_ values =
    List.iter (fun (kn, (v, n)) -> Out.metric ~n (name ^ "." ^ kn) unit_ v) values;
    Out.metric
      ~n:(List.fold_left (fun acc (_, (_, n)) -> min acc n) max_int values)
      (name ^ ".geomean") unit_
      (Stat.geomean (List.map (fun (_, (v, _)) -> v) values))
  in
  let ratio a b = List.map2 (fun (kn, (x, n)) (_, (y, m)) -> (kn, (x /. y, min n m))) a b in
  let run = per_kernel "ir.run" and attrib = per_kernel "core.estimate.attrib" in
  let adapt = per_kernel "adapt.analyze" in
  geo "ir.run_s" "s" run;
  geo "core.estimate.gradient_s" "s" (per_kernel "core.estimate.gradient");
  geo "core.estimate.error_s" "s" (per_kernel "core.estimate.error");
  geo "core.estimate.attrib_s" "s" attrib;
  geo "core.estimate.over_original" "ratio" (ratio attrib run);
  geo "adapt.analyze_s" "s" adapt;
  let over_chef = ratio adapt attrib in
  Out.metric
    ~n:(List.fold_left (fun acc (_, (_, n)) -> min acc n) max_int over_chef)
    "adapt.over_chef.geomean" "ratio"
    (Stat.geomean (List.map (fun (_, (v, _)) -> v) over_chef))
