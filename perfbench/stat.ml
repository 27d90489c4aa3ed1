(* Timing, order statistics and process facts shared by the workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics (the "inclusive"
   definition numpy and Python's statistics module default to). *)
let quantile xs q =
  match xs with
  | [] -> invalid_arg "Stat.quantile: no samples"
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let geomean xs =
  let n = float_of_int (List.length xs) in
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. n)

(* Samples strictly above the q-quantile: the guide's rule is to report
   the highest percentile that still has ten samples beyond it. *)
let beyond xs q =
  let cut = quantile xs q in
  List.length (List.filter (fun x -> x > cut) xs)

(* Peak resident set ([VmHWM]) of a live process, in MB (2^20 bytes). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run [f] [reps] times and keep the last result with every duration. *)
let repeat reps f =
  let rec go k acc last =
    if k = 0 then (Option.get last, List.rev acc)
    else
      let r, s = time f in
      go (k - 1) (s :: acc) (Some r)
  in
  go reps [] None
