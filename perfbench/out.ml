(* What a run reports: named metrics with units and sample counts, the
   operation tally behind [attempted]/[failed], and exact counts that
   must repeat across passes. *)

type metric = { name : string; unit_ : string; value : float; n : int }

let metrics : metric list ref = ref []
let attempted = ref 0
let failed = ref 0

let metric ?(n = 1) name unit_ value =
  metrics := { name; unit_; value; n } :: List.filter (fun m -> m.name <> name) !metrics

(* One checked operation: [ok] false counts it as failed. The reason
   goes to stderr so a failing run says what was wrong. *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

(* Deterministic counts (bytes, ops, statements, executions, misses)
   must read the same on every pass of one invocation; a drift is a
   failure. The first reading is also published as a metric. *)
let exact_seen : (string, int) Hashtbl.t = Hashtbl.create 32

let exact ?(unit_ = "count") name v =
  match Hashtbl.find_opt exact_seen name with
  | None ->
      Hashtbl.replace exact_seen name v;
      metric name unit_ (float_of_int v)
  | Some v0 ->
      check (v = v0) (Printf.sprintf "exact count %s drifted: %d then %d" name v0 v)

let print_result ~workload ~seed ~trace =
  let ms = List.rev !metrics in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    workload seed trace
    (!failed = 0 && !attempted > 0)
    !attempted !failed;
  List.iteri
    (fun i m ->
      Printf.bprintf buf "%s%S: {\"value\": %.17g, \"unit\": %S, \"n\": %d}"
        (if i = 0 then "" else ", ")
        m.name m.value m.unit_ m.n)
    ms;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)
