(* Golden CHEF-FP reports. Every field of [Estimate.run] and
   [Estimate.run_interpreted] on a fixed set of analyses, pinned in
   estimate_golden.txt: the five paper kernels at small sizes and the 48
   FPCore corpus kernels on their :pre midpoints, under six option sets
   (the `cheffp analyze` defaults, the library defaults, attribution off,
   per-iteration tracking, signed accumulation, optimizer off). Floats
   are written in hexadecimal; a sequence longer than [shown] entries is
   written as its length and the MD5 of its hexadecimal rendering. Run
   with [--dump-golden] to print the file from the current code. *)

open Cheffp_ir
module B = Cheffp_benchmarks
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model

let analyze = { E.default_options with track_ranges = true }

let option_sets =
  [
    ("analyze", analyze);
    ("default", E.default_options);
    ("no_per_variable", { E.default_options with per_variable = false });
    ("track_iterations", { E.default_options with track_iterations = `Outermost });
    ("signed", { E.default_options with accumulation = `Signed });
    ("no_optimize", { analyze with optimize = false });
  ]

type kernel = { kname : string; prog : Ast.program; func : string; args : Interp.arg list }

let kernels () =
  let paper =
    [
      { kname = "arclength"; prog = B.Arclength.program;
        func = B.Arclength.func_name; args = B.Arclength.args ~n:200 };
      { kname = "simpsons"; prog = B.Simpsons.program;
        func = B.Simpsons.func_name;
        args = B.Simpsons.args ~a:0. ~b:Float.pi ~n:200 };
      { kname = "kmeans"; prog = B.Kmeans.program; func = B.Kmeans.func_name;
        args = B.Kmeans.args (B.Kmeans.generate ~npoints:40 ()) };
      { kname = "hpccg"; prog = B.Hpccg.program; func = B.Hpccg.func_name;
        args = B.Hpccg.args (B.Hpccg.generate ~nx:4 ~ny:4 ~nz:3 ~max_iter:3 ()) };
      { kname = "blackscholes";
        prog = B.Blackscholes.program B.Blackscholes.Exact;
        func = B.Blackscholes.func_name;
        args = B.Blackscholes.args (B.Blackscholes.generate ~n:16 ()) };
    ]
  in
  let corpus =
    List.map
      (fun (e : B.Corpus.entry) ->
        let core = e.B.Corpus.core in
        let func = core.Cheffp_fpcore.Import.name in
        { kname = "corpus." ^ func; prog = e.B.Corpus.prog; func;
          args = core.Cheffp_fpcore.Import.default_args })
      (B.Corpus.load ())
  in
  paper @ corpus

let hex x = if Float.is_nan x then "nan" else Printf.sprintf "%h" x
let shown = 8

let seq xs =
  let items = List.map hex xs in
  if List.length xs <= shown then String.concat " " items
  else
    Printf.sprintf "n=%d md5=%s" (List.length xs)
      (Digest.to_hex (Digest.string (String.concat " " items)))

let render (r : E.report) =
  [ "total_error " ^ hex r.E.total_error ]
  @ List.map (fun (n, g) -> Printf.sprintf "gradient %s %s" n (hex g)) r.E.gradients
  @ List.map
      (fun (n, a) -> Printf.sprintf "array_gradient %s %s" n (seq (Array.to_list a)))
      r.E.array_gradients
  @ List.map (fun (n, e) -> Printf.sprintf "per_variable %s %s" n (hex e)) r.E.per_variable
  @ List.map
      (fun (n, l) ->
        Printf.sprintf "per_iteration %s %s" n
          (seq (List.concat_map (fun (i, x) -> [ float_of_int i; x ]) l)))
      r.E.per_iteration
  @ List.map
      (fun (n, (lo, hi)) -> Printf.sprintf "range %s %s %s" n (hex lo) (hex hi))
      r.E.ranges
  @ [
      Printf.sprintf "stack_peak_bytes %d" r.E.stack_peak_bytes;
      Printf.sprintf "analysis_bytes %d" r.E.analysis_bytes;
    ]

(* (label, rendered lines) of every case, in file order. *)
let cases () =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun (oname, options) ->
          let label exec = String.concat "." [ k.kname; oname; exec ] in
          match
            E.estimate_error ~model:(Model.adapt ()) ~options ~prog:k.prog
              ~func:k.func ()
          with
          | exception E.Error m -> [ (label "build", [ "error " ^ m ]) ]
          | est ->
              [
                (label "compiled", render (E.run est (Interp.copy_args k.args)));
                (label "interpreted", render (E.run_interpreted est (Interp.copy_args k.args)));
              ])
        option_sets)
    (kernels ())

let dump_golden () =
  List.iter
    (fun (label, lines) ->
      print_endline ("case " ^ label);
      List.iter print_endline lines)
    (cases ())

(* The golden file as (label, lines) in file order. *)
let golden_file () =
  let ic = open_in "estimate_golden.txt" in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  let prefix = "case " in
  List.fold_left
    (fun acc line ->
      if String.starts_with ~prefix line then
        (String.sub line 5 (String.length line - 5), []) :: acc
      else
        match acc with
        | (label, lines) :: rest -> (label, line :: lines) :: rest
        | [] -> failwith "estimate_golden.txt: line before the first case")
    [] (read [])
  |> List.rev_map (fun (label, lines) -> (label, List.rev lines))

let test_golden () =
  let golden = golden_file () in
  let current = cases () in
  Alcotest.(check (list string)) "case labels" (List.map fst golden)
    (List.map fst current);
  List.iter2
    (fun (label, want) (_, got) -> Alcotest.(check (list string)) label want got)
    golden current

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--dump-golden" then begin
    dump_golden ();
    exit 0
  end;
  Alcotest.run "estimate_golden"
    [ ("estimate", [ Alcotest.test_case "golden reports" `Quick test_golden ]) ]
