(* serve-mix: a `cheffp serve --workers 1` daemon in its own process,
   driven over a Unix socket by this process through two connections.
   Each connection sends its next request only after the previous reply
   (closed loop). The mix per round is one analyze and one 256-sample
   `sample` per FPCore corpus kernel plus three warm searches at smoke
   sizes, in an order drawn from the seed. *)

open Cheffp_ir
module B = Cheffp_benchmarks
module Json = Cheffp_server.Json
module Client = Cheffp_server.Client
module E = Cheffp_core.Estimate
module Model = Cheffp_core.Model
module Search = Cheffp_core.Search
module Tuner = Cheffp_core.Tuner
module Sampling = Cheffp_core.Sampling
module Quantile = Cheffp_core.Quantile
module Config = Cheffp_precision.Config
module Fp = Cheffp_precision.Fp
module Shadow = Cheffp_shadow.Shadow

let connections = 2

(* One worker domain, not two: on a 2-vCPU host a two-worker daemon has
   three domains, and its throughput halved whenever another process
   took a CPU (930 -> 440 requests/s, against 677 -> 613 with one
   worker), which no run length can make steady. *)
let workers = 1
let samples = 256

type kind = Analyze | Sample | Search

let kind_name = function Analyze -> "analyze" | Sample -> "sample" | Search -> "search"

type template = {
  kind : kind;
  label : string;
  source : string;  (** MiniFP text sent on the wire *)
  func : string;
  args : string list;  (** the CLI's positional syntax *)
  fields : (string * Json.t) list;  (** kind-specific request fields *)
}

let wire_arg = function
  | Interp.Aint n -> string_of_int n
  | Interp.Aflt x -> Printf.sprintf "%.17g" x
  | Interp.Afarr a ->
      String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%.17g") a))
  | Interp.Aiarr a -> String.concat ":" (Array.to_list (Array.map string_of_int a))

(* The request population: built from the corpus files and the seeded
   generators only. *)
let templates ~seed =
  let corpus = B.Corpus.load () in
  let per_kernel (e : B.Corpus.entry) =
    let core = e.B.Corpus.core in
    let func = core.Cheffp_fpcore.Import.name in
    let source = Pp.program_to_string e.B.Corpus.prog in
    let args = List.map wire_arg core.Cheffp_fpcore.Import.default_args in
    let demote =
      List.map
        (fun v -> Json.Str (v ^ ":f32"))
        (Tuner.float_variables (Ast.func_exn e.B.Corpus.prog func))
    in
    [
      { kind = Analyze; label = func; source; func; args; fields = [] };
      {
        kind = Sample;
        label = func;
        source;
        func;
        args;
        fields = [ ("samples", Json.Num (float_of_int samples)); ("demote", Json.List demote) ];
      };
    ]
  in
  let search label source func args threshold =
    {
      kind = Search;
      label;
      source;
      func;
      args = List.map wire_arg args;
      fields = [ ("threshold", Json.Num threshold) ];
    }
  in
  List.concat_map per_kernel corpus
  @ [
      search "arclength" B.Arclength.source B.Arclength.func_name
        (B.Arclength.args ~n:2_000) 1e-6;
      search "simpsons" B.Simpsons.source B.Simpsons.func_name
        (B.Simpsons.args ~a:0. ~b:Float.pi ~n:2_000) 1e-10;
      search "kmeans" B.Kmeans.source B.Kmeans.func_name
        (B.Kmeans.args (B.Kmeans.generate ~seed:(Int64.of_int seed) ~npoints:300 ()))
        1e-7;
    ]

let request ~id t =
  Client.request ~id ~cmd:(kind_name t.kind)
    ([
       ("program", Json.Str t.source);
       ("func", Json.Str t.func);
       ("args", Json.List (List.map (fun s -> Json.Str s) t.args));
     ]
    @ t.fields)

(* ---- independent expectations: direct library calls on the re-parsed
   request ---- *)

let parse_args (f : Ast.func) raw =
  let params = List.filter (fun p -> p.Ast.pmode = Ast.In) f.Ast.params in
  List.map2
    (fun p s ->
      let floats () = Array.of_list (List.map float_of_string (String.split_on_char ':' s)) in
      match p.Ast.pty with
      | Ast.Tscalar Ast.Sint -> Interp.Aint (int_of_string s)
      | Ast.Tscalar (Ast.Sflt _) -> Interp.Aflt (float_of_string s)
      | Ast.Tarr (Ast.Sflt _) -> Interp.Afarr (floats ())
      | Ast.Tarr Ast.Sint ->
          Interp.Aiarr (Array.of_list (List.map int_of_string (String.split_on_char ':' s))))
    params raw

(* The fields each response must carry, as (key, value) pairs. Floats
   travel as %.17g on the wire, so equality is bit equality. *)
let expected ~builtins ~deriv t =
  let prog = Parser.parse_program t.source in
  Typecheck.check_program ~builtins prog;
  let f = Ast.func_exn prog t.func in
  let args = parse_args f t.args in
  let fl k v = (k, `F v) and fls k l = (k, `P l) in
  match t.kind with
  | Analyze ->
      let est =
        E.estimate_error ~model:(Model.adapt ~target:Fp.F32 ()) ~deriv ~builtins
          ~options:{ E.default_options with track_ranges = true }
          ~prog ~func:t.func ()
      in
      let r = E.run est args in
      [ fl "total_error" r.E.total_error; fls "per_variable" r.E.per_variable;
        fls "gradients" r.E.gradients ]
  | Sample ->
      let config =
        List.fold_left
          (fun c v -> Config.demote c v Fp.F32)
          Config.double (Tuner.float_variables f)
      in
      let plan = Sampling.plan ~dists:[] ~func:f ~args () in
      let inputs = Sampling.draw_many plan ~seed:42L samples in
      let s, _ =
        Sampling.measured_summary ~jobs:1 ~lanes:Batch.default_lanes ~builtins ~prog
          ~func:t.func ~config inputs
      in
      [ fl "samples" (float_of_int s.Quantile.count); fl "p50" s.Quantile.p50;
        fl "p95" s.Quantile.p95; fl "p99" s.Quantile.p99; fl "max" s.Quantile.max;
        fl "mean" s.Quantile.mean ]
  | Search ->
      let threshold =
        match List.assoc "threshold" t.fields with Json.Num x -> x | _ -> assert false
      in
      let measure config =
        Shadow.measured_error
          (Shadow.run ~builtins ~config ~mode:Config.Source ~prog ~func:t.func
             (Kit.copy_args args))
      in
      let o =
        Search.tune ~target:Fp.F32 ~builtins ~jobs:1 ~strategy:`Hybrid
          ~prune_margin:64. ~batch:Batch.default_lanes ~measure ~prog ~func:t.func
          ~args ~threshold ()
      in
      [ ("demoted", `S o.Search.demoted);
        fl "executions" (float_of_int o.Search.executions);
        fl "batched_runs" (float_of_int o.Search.batched_runs);
        fl "runs_avoided" (float_of_int o.Search.runs_avoided);
        fl "modelled_error" o.Search.modelled_error;
        fl "measured_error" (Option.get o.Search.measured_error);
        fl "actual_error" o.Search.evaluation.Tuner.actual_error;
        fl "modelled_speedup" o.Search.evaluation.Tuner.modelled_speedup;
        ("config", `C (Config.to_string o.Search.evaluation.Tuner.config)) ]

let matches fields resp =
  Json.member "ok" resp = Json.Bool true
  &&
  let result = Json.member "result" resp in
  List.for_all
    (fun (k, v) ->
      let got = Json.member k result in
      match v with
      | `F x -> (match Json.to_float_opt got with Some y -> Kit.same_float x y | None -> false)
      | `C s -> Json.to_string_opt got = Some s
      | `S l -> Json.string_list got = l
      | `P l ->
          let g = Json.to_list got in
          List.length g = List.length l
          && List.for_all2
               (fun o (n, x) ->
                 Json.to_string_opt (Json.member "var" o) = Some n
                 && match Json.to_float_opt (Json.member "error" o) with
                    | Some y -> Kit.same_float x y
                    | None -> false)
               g l)
    fields

(* ---- the daemon ---- *)

type daemon = {
  pid : int;
  conns : Client.t array;
  err : in_channel;  (** the daemon's stderr *)
}

(* Daemon start plus connect. `cheffp serve` prints its "listening"
   line on stderr once its socket is bound and listening, so blocking
   on that line times readiness without a polling interval. Returns
   once every connection answers a ping. *)
let start ~cheffp ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cheffp
      [| cheffp; "serve"; "--socket"; socket; "--workers"; string_of_int workers |]
      Unix.stdin Unix.stderr w
  in
  Unix.close w;
  let err = Unix.in_channel_of_descr r in
  (match input_line err with
  | _ -> ()
  | exception End_of_file -> failwith "cheffp serve exited before listening");
  let conns =
    Array.init connections (fun i ->
        let c = Client.connect_unix socket in
        let pong = Client.rpc c (Client.request ~id:(-1 - i) ~cmd:"ping" []) in
        if Json.member "ok" pong <> Json.Bool true then failwith "daemon ping failed";
        c)
  in
  { pid; conns; err }

(* SIGTERM is the daemon's documented stop: with no connection left open
   it drains at once and exits. Whatever it printed on the way out is
   passed on to this process's stderr, so the result line stays last on
   stdout. *)
let stop d =
  Array.iter Client.close d.conns;
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  (try
     while true do
       prerr_endline (input_line d.err)
     done
   with End_of_file -> ());
  close_in d.err

(* Kill the daemon if the run dies before a clean [stop]. *)
let guard d f =
  match f () with
  | r -> r
  | exception e ->
      (try Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid) with _ -> ());
      raise e

(* ---- the closed loop ---- *)

type sample = {
  t : template;
  rtt_s : float;
  resp : Json.t;
}

(* One round: the seeded permutation of the templates, pulled by the
   connections from a shared cursor. Returns the round wall time and
   every (template, round trip, response). *)
let round d ts order ~next_id =
  let cursor = Atomic.make 0 in
  let n = Array.length order in
  let results = Array.make n None in
  let worker c () =
    let rec go () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let t = ts.(order.(i)) in
        let id = Atomic.fetch_and_add next_id 1 in
        let resp, rtt_s =
          Stat.time (fun () ->
              Span.with_ ~req:id ("server.rpc." ^ kind_name t.kind) (fun () ->
                  Client.rpc c (request ~id t)))
        in
        results.(i) <- Some { t; rtt_s; resp };
        go ()
      end
    in
    go ()
  in
  let t0 = Stat.now () in
  let threads = Array.map (fun c -> Thread.create (worker c) ()) d.conns in
  Array.iter Thread.join threads;
  (Stat.now () -. t0, Array.to_list (Array.map Option.get results))

type loop_result = { pass_s : float list; samples : sample list }

let run_loop ?(min_passes = 2) ~seconds ~seed d ts expect =
  let ts = Array.of_list ts in
  let next_id = Atomic.make 1 in
  let pass_s = ref [] and all = ref [] in
  Kit.loop ~seconds ~min_passes (fun ~timed r ->
      let order = Array.init (Array.length ts) Fun.id in
      Cheffp_util.Rng.shuffle (Cheffp_util.Rng.substream (Int64.of_int seed) r) order;
      let s, got = round d ts order ~next_id in
      if timed then pass_s := s :: !pass_s;
      List.iter
        (fun smp ->
          Out.check
            (matches (Hashtbl.find expect (smp.t.kind, smp.t.label)) smp.resp)
            (Printf.sprintf "%s %s: response differs from the direct library call"
               (kind_name smp.t.kind) smp.t.label))
        got;
      if timed then all := List.rev_append got !all);
  { pass_s = List.rev !pass_s; samples = List.rev !all }

let expectations ts =
  let builtins = Kit.builtins () and deriv = Kit.deriv () in
  let tbl = Hashtbl.create 128 in
  List.iter (fun t -> Hashtbl.replace tbl (t.kind, t.label) (expected ~builtins ~deriv t)) ts;
  tbl

(* Set-up: request population from the corpus and the seed, then daemon
   start plus connect, [reps] times. Each repetition but the last stops
   its daemon after its clock has stopped. *)
let setup ~cheffp ~seed ~reps =
  let socket = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ()) in
  let rec go k times =
    let (ts, d), s = Stat.time (fun () -> (templates ~seed, start ~cheffp ~socket)) in
    if k = reps then ((ts, d), List.rev (s :: times))
    else begin
      stop d;
      go (k + 1) (s :: times)
    end
  in
  go 1 []

(* Per-request-kind latency and the server-side split of a round trip
   from the response envelope. *)
let report_server (samples : sample list) =
  let ms f = List.map f samples in
  let of_kind k = List.filter (fun s -> s.t.kind = k) samples in
  List.iter
    (fun k ->
      let rtt = List.map (fun s -> s.rtt_s *. 1e3) (of_kind k) in
      let n = List.length rtt in
      Out.metric ~n ("server." ^ kind_name k ^ "_ms_p50") "ms" (Stat.median rtt);
      Out.metric ~n ("server." ^ kind_name k ^ "_ms_p99") "ms" (Stat.quantile rtt 0.99))
    [ Analyze; Sample; Search ];
  let field k s = Option.value ~default:nan (Json.to_float_opt (Json.member k s.resp)) in
  let queue = ms (field "queue_wait_ms") and exec = ms (field "elapsed_ms") in
  let wire = ms (fun s -> (s.rtt_s *. 1e3) -. field "queue_wait_ms" s -. field "elapsed_ms" s) in
  let n = List.length samples in
  Out.metric ~n "server.queue_wait_ms_p50" "ms" (Stat.median queue);
  Out.metric ~n "server.exec_ms_p50" "ms" (Stat.median exec);
  Out.metric ~n "server.wire_ms_p50" "ms" (Stat.median wire);
  let cache k s = Option.value ~default:0. (Json.to_float_opt (Json.member k (Json.member "cache" s.resp))) in
  let hits = List.fold_left (fun a s -> a +. cache "hits" s) 0. samples in
  let misses = List.fold_left (fun a s -> a +. cache "misses" s) 0. samples in
  Out.metric ~n "ir.compile_cache.hit_ratio" "ratio" (hits /. (hits +. misses))

(* Front end of the corpus kernels the analyze requests carry, called
   in this process layer by layer (spans named "<layer>.corpus"). *)
let corpus_front_end ~reps =
  let builtins = Kit.builtins () and deriv = Kit.deriv () in
  let corpus = B.Corpus.load () in
  for _ = 1 to reps do
    let stmts =
      List.fold_left
        (fun acc (e : B.Corpus.entry) ->
          acc
          + Paper.front_end ~builtins ~deriv ~label:"corpus"
              ~source:(Pp.program_to_string e.B.Corpus.prog)
              ~func:e.B.Corpus.core.Cheffp_fpcore.Import.name)
        0 corpus
    in
    Out.exact "core.estimate.generated_stmts.corpus" stmts
  done
