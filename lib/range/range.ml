(* Facade over the rigorous range/error analysis: run the Taylor
   evaluator through a global-bound backend, then answer two questions:

   - [analyze]: what is the certified worst-configuration error bound
     of [func] over [box] (with a witness sub-box), or why is there
     none;
   - [score]: for one concrete demotion set at one target format, a
     certified error bound in O(#vars) — or [None] when the bound does
     not apply (an unbounded leaf, a declared-narrow variable in the
     set, or a demoted store that could overflow the target format).

   [score]'s [None]-on-overflow mirrors {!Cheffp_core.Tuner}'s explicit
   range veto: absolute error forms say nothing about values leaving
   the target's finite range, so such configurations are never
   certified. *)

module Fp = Cheffp_precision.Fp
module Config = Cheffp_precision.Config

type verdict = Bounded | Unbounded of string

let verdict_to_string = function
  | Bounded -> "BOUNDED"
  | Unbounded reason -> Printf.sprintf "UNBOUNDED (%s)" reason

type analysis = {
  verdict : verdict;
  worst_bound : float;
      (* certified max |config - reference| over the box, over every
         configuration (all variables F16); [infinity] when Unbounded *)
  value : Interval.t option;  (* enclosure of the reference return *)
  witness : Box.t;  (* sub-box where the bound is attained *)
  box : Box.t;
  backend : string;
  splits : int;
  evals : int;
  elapsed_ms : float;
  leaves : (float * Box.t * Taylor.result option) list;
}

let analyze ?(backend = "bb") ?(pars = Backend.default_pars) ?builtins ?mode
    ?fuel ~prog ~func ~(box : Box.t) () : analysis =
  let (module B : Backend.BACKEND) =
    match Backend.of_name backend with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Range.analyze: no backend %S" backend)
  in
  let objective b =
    let r = Taylor.eval_func ?builtins ?mode ?fuel ~prog ~func ~box:b () in
    (Taylor.slack r.Taylor.ret.Taylor.form, r)
  in
  let r = B.maximize pars objective box in
  let value =
    List.fold_left
      (fun acc (_, _, payload) ->
        match (acc, payload) with
        | None, Some (t : Taylor.result) -> Some t.ret.iv
        | Some iv, Some t -> Some (Interval.hull iv t.ret.iv)
        | acc, None -> acc)
      None r.Backend.leaves
  in
  let verdict =
    if Float.is_finite r.Backend.bound then Bounded
    else
      match
        Taylor.eval_func ?builtins ?mode ?fuel ~prog ~func
          ~box:r.Backend.lower_witness ()
      with
      | exception Interval.Unbounded reason -> Unbounded reason
      | _ -> Unbounded "bound overflows"
  in
  {
    verdict;
    worst_bound = r.Backend.bound;
    value;
    witness = r.Backend.lower_witness;
    box;
    backend = B.name;
    splits = r.Backend.splits;
    evals = r.Backend.evals;
    elapsed_ms = r.Backend.elapsed_ms;
    leaves = r.Backend.leaves;
  }

exception Not_certified

let score (a : analysis) ~(target : Fp.format) (vars : string list) :
    float option =
  match a.verdict with
  | Unbounded _ -> None
  | Bounded -> (
      let u = Fp.unit_roundoff target in
      let cap = 0.5 *. Fp.max_finite target in
      try
        Some
          (List.fold_left
             (fun acc (_, _, payload) ->
               match payload with
               | None -> raise Not_certified
               | Some (r : Taylor.result) ->
                   List.iter
                     (fun v ->
                       if Taylor.SS.mem v r.narrow then raise Not_certified;
                       match Taylor.SM.find_opt v r.peaks with
                       | Some peak when peak >= cap -> raise Not_certified
                       | _ -> ())
                     vars;
                   let coeffs =
                     List.fold_left
                       (fun s v ->
                         s
                         +.
                         match Taylor.SM.find_opt v r.ret.form.coeffs with
                         | Some c -> c
                         | None -> 0.)
                       0. vars
                   in
                   Float.max acc (r.ret.form.fconst +. (u *. coeffs)))
             0. a.leaves)
      with Not_certified -> None)

(* Union of every variable the certified forms charge — the demotion
   surface the bound can speak about. *)
let charged_vars (a : analysis) =
  List.fold_left
    (fun acc (_, _, payload) ->
      match payload with
      | None -> acc
      | Some (r : Taylor.result) ->
          Taylor.SM.fold
            (fun v _ acc -> if List.mem v acc then acc else v :: acc)
            r.Taylor.ret.Taylor.form.Taylor.coeffs acc)
    [] a.leaves
  |> List.sort compare

let report ?(target = Fp.F32) (a : analysis) =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "rigorous range analysis (%s: %d split(s), %d eval(s), %.1f ms)\n"
    a.backend a.splits a.evals a.elapsed_ms;
  pf "  box:      %s\n" (Box.to_string a.box);
  pf "  verdict:  %s\n" (verdict_to_string a.verdict);
  (match a.value with
  | Some iv -> pf "  value:    %s\n" (Interval.to_string iv)
  | None -> ());
  (match a.verdict with
  | Unbounded _ -> ()
  | Bounded ->
      pf "  bound (any config, worst case f16):  %.6g\n" a.worst_bound;
      let vars = charged_vars a in
      (match score a ~target vars with
      | Some bound ->
          pf "  bound (all %d var(s) at %s):%*s%.6g\n" (List.length vars)
            (Fp.format_to_string target)
            (10 - String.length (Fp.format_to_string target))
            "" bound
      | None ->
          pf "  bound at %s: not certified (overflow or narrow storage)\n"
            (Fp.format_to_string target)));
  pf "  witness:  %s\n" (Box.to_string a.witness);
  Buffer.contents b
