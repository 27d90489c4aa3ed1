module Batch = Cheffp_ir.Batch
module Export = Cheffp_obs.Export
module Trace = Cheffp_obs.Trace
module Compile_cache = Cheffp_ir.Compile_cache
module Ast = Cheffp_ir.Ast
module Interp = Cheffp_ir.Interp
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp

type cmd =
  | Ping
  | Analyze
  | Tune
  | Search
  | Sample
  | Validate
  | Range
  | Metrics
  | Stats
  | Traces
  | Shutdown

let cmd_name = function
  | Ping -> "ping"
  | Analyze -> "analyze"
  | Tune -> "tune"
  | Search -> "search"
  | Sample -> "sample"
  | Validate -> "validate"
  | Range -> "range"
  | Metrics -> "metrics"
  | Stats -> "stats"
  | Traces -> "traces"
  | Shutdown -> "shutdown"

let cmd_of_string = function
  | "ping" -> Some Ping
  | "analyze" -> Some Analyze
  | "tune" -> Some Tune
  | "search" -> Some Search
  | "sample" -> Some Sample
  | "validate" -> Some Validate
  | "range" -> Some Range
  | "metrics" -> Some Metrics
  | "stats" -> Some Stats
  | "traces" -> Some Traces
  | "shutdown" -> Some Shutdown
  | _ -> None

(* Request fields mirror the CLI flags one-to-one (same names, same
   defaults, same string syntax for arguments and demotions), so a
   request is exactly "a CLI invocation as an object" — the handlers
   run the same code paths and the bit-identity harness compares the
   two directly. *)
type request = {
  id : int;
  cmd : cmd;
  program : string;
  func : string;
  args : string list;  (* positional, arrays as v1:v2:... *)
  threshold : float option;
  target : string;
  model : string;
  demote : string list;  (* var:fmt *)
  mode : string;
  margin : float;
  strategy : string;
  prune_margin : float;
  profiled : bool;
  jobs : int;
  batch : int;
  no_batch : bool;
  tenant : string option;
  priority : int;
  deadline_ms : float option;
  trace : bool;
  format : string;  (* metrics exposition: "dump" (default) | "prometheus" *)
  limit : int;  (* traces: max slowest trees returned; 0 = all retained *)
  samples : int;  (* sample/search: Monte-Carlo input count; 0 = off *)
  dist : string option;  (* per-variable distribution spec, CLI --dist *)
  target_quantile : float;  (* search: quantile the threshold applies to *)
  seed : int;  (* sampling seed *)
  box : string option;  (* range: box override spec, CLI --box *)
  range_backend : string;  (* range: "bb" (default) | "whole" *)
}

(* The string syntax of request fields and CLI flags, in one place: the
   server's handlers and bin/cheffp.ml both parse through these, so a
   request and its one-shot invocation resolve to the same values and
   fail with the same messages. *)

let target_of s =
  match Fp.format_of_string s with
  | Some f -> f
  | None -> failwith ("unknown format " ^ s)

let model_of_string target = function
  | "taylor" -> Cheffp_core.Model.taylor ~target ()
  | "adapt" -> Cheffp_core.Model.adapt ~target ()
  | "zero" -> Cheffp_core.Model.zero
  | other -> failwith ("unknown model " ^ other ^ " (taylor|adapt|zero)")

let strategy_of s =
  match Cheffp_core.Search.strategy_of_string s with
  | Some st -> st
  | None -> failwith ("unknown strategy " ^ s ^ " (measured|modelled|hybrid)")

let mode_of_string = function
  | "extended" -> Config.Extended
  | "source" -> Config.Source
  | other -> failwith ("unknown mode " ^ other ^ " (extended|source)")

let batch_of ~batch ~no_batch =
  if no_batch || batch < 2 then None else Some batch

let parse_args func (raw : string list) =
  let f p s =
    match p.Ast.pty with
    | Ast.Tscalar Ast.Sint -> Interp.Aint (int_of_string s)
    | Ast.Tscalar (Ast.Sflt _) -> Interp.Aflt (float_of_string s)
    | Ast.Tarr (Ast.Sflt _) ->
        Interp.Afarr
          (Array.of_list (List.map float_of_string (String.split_on_char ':' s)))
    | Ast.Tarr Ast.Sint ->
        Interp.Aiarr
          (Array.of_list (List.map int_of_string (String.split_on_char ':' s)))
  in
  let params = List.filter (fun p -> p.Ast.pmode = Ast.In) func.Ast.params in
  if List.length params <> List.length raw then
    failwith
      (Printf.sprintf "function %S expects %d arguments, got %d" func.Ast.fname
         (List.length params) (List.length raw));
  List.map2 f params raw

let parse_config demote =
  List.fold_left
    (fun cfg spec ->
      match String.split_on_char ':' spec with
      | [ var; fmt ] -> (
          match Fp.format_of_string fmt with
          | Some f -> Config.demote cfg var f
          | None -> failwith ("unknown format " ^ fmt))
      | _ -> failwith ("bad demotion spec " ^ spec ^ " (expected var:fmt)"))
    Config.double demote

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error m -> Error ("bad JSON: " ^ m)
  | j -> (
      let str k d = Option.value ~default:d (Json.to_string_opt (Json.member k j)) in
      let int k d = Option.value ~default:d (Json.to_int_opt (Json.member k j)) in
      let flt k d = Option.value ~default:d (Json.to_float_opt (Json.member k j)) in
      let flag k d = Option.value ~default:d (Json.to_bool_opt (Json.member k j)) in
      match Json.to_int_opt (Json.member "id" j) with
      | None -> Error "missing request id"
      | Some id -> (
          match cmd_of_string (str "cmd" "") with
          | None -> Error (Printf.sprintf "request %d: unknown cmd %S" id (str "cmd" ""))
          | Some cmd ->
              Ok
                {
                  id;
                  cmd;
                  program = str "program" "";
                  func = str "func" "";
                  args = Json.string_list (Json.member "args" j);
                  threshold = Json.to_float_opt (Json.member "threshold" j);
                  target = str "target" "f32";
                  model = str "model" "adapt";
                  demote = Json.string_list (Json.member "demote" j);
                  mode = str "mode" "extended";
                  margin = flt "margin" 1.0;
                  strategy = str "strategy" "hybrid";
                  prune_margin = flt "prune_margin" 64.;
                  profiled = flag "profiled" false;
                  jobs = int "jobs" 1;
                  batch = int "batch" Batch.default_lanes;
                  no_batch = flag "no_batch" false;
                  tenant = Json.to_string_opt (Json.member "tenant" j);
                  priority = int "priority" 0;
                  deadline_ms = Json.to_float_opt (Json.member "deadline_ms" j);
                  trace = flag "trace" false;
                  format = str "format" "dump";
                  limit = int "limit" 0;
                  samples = int "samples" 0;
                  dist = Json.to_string_opt (Json.member "dist" j);
                  target_quantile = flt "target_quantile" 0.99;
                  seed = int "seed" 42;
                  box = Json.to_string_opt (Json.member "box" j);
                  range_backend = str "range_backend" "bb";
                }))

(* Responses. [spans] are pre-rendered {!Cheffp_obs.Export} JSON lines
   carried as strings: span timestamps are int64 nanoseconds, which do
   not survive a trip through a float-backed JSON number, so the server
   never re-parses them — clients write the lines verbatim to get a
   file [validate_trace] accepts. *)

type cache_summary = { c_hits : int; c_misses : int }

let ok_response ~id ~cmd ~queue_wait_ms ~elapsed_ms ~cache ~spans ~report
    result =
  Json.Obj
    ([
       ("id", Json.Num (float_of_int id));
       ("cmd", Json.Str (cmd_name cmd));
       ("ok", Json.Bool true);
       ("result", result);
       ("report", Json.Str report);
       ("queue_wait_ms", Json.Num queue_wait_ms);
       ("elapsed_ms", Json.Num elapsed_ms);
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Num (float_of_int cache.c_hits));
             ("misses", Json.Num (float_of_int cache.c_misses));
           ] );
     ]
    @
    match spans with
    | [] -> []
    | spans ->
        [
          ( "spans",
            Json.List
              (List.map (fun s -> Json.Str (Export.span_to_json s)) spans) );
        ])

let error_response ~id msg =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("ok", Json.Bool false);
      ("error", Json.Str msg);
    ]
