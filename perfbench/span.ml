(* The benchmark's own tracer. With tracing on, [with_] records one span
   per call into a layer: name, start, end, parent span and a request id
   shared by the spans of one operation. Spans stay in memory and are
   written out by [write] when the run ends. With tracing off, [with_]
   is a plain call. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;
  name : string;
  start : float;
  mutable stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : t list ref = ref []
let next_id = ref 1

(* Open spans per systhread: the serve-mix generator drives its two
   connections from two threads, and a span's parent is the innermost
   open span of the thread that made the call. *)
let stacks : (int, t list) Hashtbl.t = Hashtbl.create 4

let locked f = Mutex.protect lock f

let with_ ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let s =
      locked (fun () ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let parent, req =
            match stack with
            | p :: _ -> (p.id, if req = 0 then p.req else req)
            | [] -> (0, req)
          in
          let s =
            { id = !next_id; parent; req; name; start = Stat.now (); stop = nan }
          in
          incr next_id;
          Hashtbl.replace stacks tid (s :: stack);
          s)
    in
    Fun.protect f ~finally:(fun () ->
        s.stop <- Stat.now ();
        locked (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ());
            spans := s :: !spans))
  end

let count () = locked (fun () -> List.length !spans)

(* What recording one span costs: [n] spans around an empty call with
   tracing on, less the same calls with tracing off, per span; the
   median of five such trials. The calibration spans are dropped
   again. *)
let cost ?(n = 20_000) () =
  let was = !enabled and kept = locked (fun () -> !spans) in
  let trial on =
    enabled := on;
    let t0 = Stat.now () in
    for _ = 1 to n do
      with_ "perfbench.calibrate" ignore
    done;
    Stat.now () -. t0
  in
  let per_span () =
    let off = trial false in
    (trial true -. off) /. float_of_int n
  in
  let c = Stat.median (List.init 5 (fun _ -> per_span ())) in
  locked (fun () -> spans := kept);
  enabled := was;
  c

(* Self time of every span: its duration minus its children's. Children
   of one span run on its thread one after another, so they never
   overlap and their durations add up. Returns a table from span name
   to the self times of the spans of that name. *)
let self_times () =
  let all = locked (fun () -> List.rev !spans) in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child s.parent)
          +. (s.stop -. s.start)))
    all;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_name s.name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    all;
  by_name

(* Median self time of the spans called [name] in a [self_times] table,
   and how many there were. *)
let self_median tbl name =
  match Hashtbl.find_opt tbl name with
  | Some xs -> (Stat.median xs, List.length xs)
  | None -> failwith ("no span named " ^ name)

(* One JSON object per line: times in seconds since the epoch. *)
let write path =
  let all = locked (fun () -> List.rev !spans) in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.parent s.req s.name s.start s.stop)
    all;
  close_out oc
