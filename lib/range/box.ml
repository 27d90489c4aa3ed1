(* Input boxes: one interval per float input (per element for float
   arrays), everything else pinned to its concrete argument.

   The default box mirrors {!Cheffp_core.Sampling}'s: +/- 50% of the
   base value's magnitude — except at zero, where a relative box would
   collapse to a point; there the box is the absolute interval [-1, 1]
   (the same rule the sampling default uses), so bounds and sweeps stay
   non-trivial. FPCore [:pre] ranges, when present, override the
   default box exactly as they override the sampling plan. *)

open Cheffp_ir

exception Spec_error of string

let spec_fail fmt = Format.kasprintf (fun s -> raise (Spec_error s)) fmt

type dim =
  | Dflt of Interval.t
  | Dfarr of Interval.t array
  | Dfixed of Interp.arg

type t = { dims : (string * dim) list }

let dims t = t.dims

let default_iv v =
  if v = 0. then Interval.make (-1.) 1.
  else
    let d = 0.5 *. Float.abs v in
    Interval.make (v -. d) (v +. d)

let of_args ?(ranges = []) ~(func : Ast.func) ~(args : Interp.arg list) () =
  if List.length args <> List.length func.Ast.params then
    spec_fail "function %S expects %d arguments, got %d" func.Ast.fname
      (List.length func.Ast.params)
      (List.length args);
  let dims =
    List.map2
      (fun (p : Ast.param) arg ->
        let dim =
          match (p.Ast.pmode, p.Ast.pty, arg) with
          | Ast.Out, _, _ -> Dfixed arg
          | Ast.In, Ast.Tscalar (Ast.Sflt _), Interp.Aflt v -> (
              match List.assoc_opt p.Ast.pname ranges with
              | Some (Some lo, Some hi) when hi > lo -> Dflt (Interval.make lo hi)
              | _ -> Dflt (default_iv v))
          | Ast.In, Ast.Tarr (Ast.Sflt _), Interp.Afarr a ->
              Dfarr (Array.map default_iv a)
          | _, _, a -> Dfixed a
        in
        (p.Ast.pname, dim))
      func.Ast.params args
  in
  { dims }

(* Degenerate box: every float input pinned to its argument point. The
   right box for single-point tuning, where candidate errors are
   measured at exactly [args]. *)
let point_of_args ~(func : Ast.func) ~(args : Interp.arg list) () =
  let b = of_args ~func ~args () in
  {
    dims =
      List.map2
        (fun (name, dim) arg ->
          match (dim, arg) with
          | Dflt _, Interp.Aflt v -> (name, Dflt (Interval.point v))
          | Dfarr _, Interp.Afarr a ->
              (name, Dfarr (Array.map Interval.point a))
          | _ -> (name, dim))
        b.dims args;
  }

(* "x=lo,hi; y=lo,hi" — entries separated by ';' or whitespace. Each
   named parameter must be a float input of the box being overridden. *)
let override_of_string spec =
  String.split_on_char ';' spec
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun entry ->
         let entry = String.trim entry in
         match String.index_opt entry '=' with
         | None -> spec_fail "bad entry %S in --box (want name=lo,hi)" entry
         | Some i -> (
             let name = String.sub entry 0 i
             and rest =
               String.sub entry (i + 1) (String.length entry - i - 1)
             in
             match String.split_on_char ',' rest with
             | [ lo; hi ] -> (
                 match
                   ( float_of_string_opt (String.trim lo),
                     float_of_string_opt (String.trim hi) )
                 with
                 | Some lo, Some hi when lo <= hi ->
                     (name, Interval.make lo hi)
                 | Some lo, Some hi ->
                     spec_fail "box for %S has lo %g > hi %g" name lo hi
                 | _ -> spec_fail "bad numbers in box entry %S" entry)
             | _ -> spec_fail "bad entry %S in --box (want name=lo,hi)" entry))

let apply_override t overrides =
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name t.dims with
      | Some (Dflt _) -> ()
      | Some _ -> spec_fail "--box names non-scalar-float parameter %S" name
      | None -> spec_fail "--box names unknown parameter %S" name)
    overrides;
  {
    dims =
      List.map
        (fun (name, dim) ->
          match List.assoc_opt name overrides with
          | Some iv -> (name, Dflt iv)
          | None -> (name, dim))
        t.dims;
  }

(* ------------------------------------------------------------------ *)
(* Splitting, for the branch-and-bound maximizer: bisect the scalar
   float dimension with the largest normalized width. Array dimensions
   are never split (the blow-up is exponential in element count); they
   only widen the bound. *)

let split_score iv = Interval.width iv /. (1. +. Interval.mag iv)

let split t =
  let best = ref None in
  List.iter
    (fun (name, dim) ->
      match dim with
      | Dflt iv when Interval.width iv > 0. ->
          let s = split_score iv in
          (match !best with
          | Some (_, s') when s' >= s -> ()
          | _ -> best := Some (name, s))
      | _ -> ())
    t.dims;
  match !best with
  | None -> None
  | Some (name, _) ->
      let remap f =
        {
          dims =
            List.map
              (fun (n, dim) ->
                if n = name then
                  match dim with
                  | Dflt iv -> (n, Dflt (f iv))
                  | _ -> assert false
                else (n, dim))
              t.dims;
        }
      in
      let lo_half iv = Interval.make (Interval.lo iv) (Interval.mid iv)
      and hi_half iv = Interval.make (Interval.mid iv) (Interval.hi iv) in
      Some (remap lo_half, remap hi_half)

let to_string t =
  t.dims
  |> List.filter_map (fun (name, dim) ->
         match dim with
         | Dflt iv -> Some (Printf.sprintf "%s in %s" name (Interval.to_string iv))
         | Dfarr ivs ->
             Some
               (Printf.sprintf "%s[%d] in %s .. %s" name (Array.length ivs)
                  (Interval.to_string ivs.(0))
                  (Interval.to_string ivs.(Array.length ivs - 1)))
         | Dfixed _ -> None)
  |> String.concat ", "
