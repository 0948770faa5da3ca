(* Shared helpers: wall clock, order statistics, process memory and the
   result line every workload prints. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolated quantile of an unsorted sample; [q] in [0, 1].
   An empty sample has no quantile: callers report 0 with the sample
   count next to it. *)
let quantile q samples =
  match samples with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = quantile 0.5 samples

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* The benchmark shares a few cores of a host whose other tenants slow
   it in spells of seconds, by up to half again (same code, same
   inputs: 145 ms rounds in one spell, 215 ms in the next); a run's
   mean depends on how many spells it caught.  An operation that repeats
   the same work several times in a run is therefore timed at the host's
   undisturbed speed: the [undisturbed_q] quantile of its samples, about
   its fastest, which a spell only moves when it covers the whole run. *)
let undisturbed_q = 0.02

(* [samples] pairs each operation's kind (work that repeats exactly)
   with its time; the undisturbed time of every kind, in no set order. *)
let undisturbed samples =
  let by_kind = Hashtbl.create 64 in
  List.iter
    (fun (kind, t) ->
      Hashtbl.replace by_kind kind
        (t :: Option.value (Hashtbl.find_opt by_kind kind) ~default:[]))
    samples;
  Hashtbl.fold (fun _ ts acc -> quantile undisturbed_q ts :: acc) by_kind []

(* Peak resident set of a process, from the [VmHWM] line of
   /proc/<pid>/status, in MiB; 0 when the file is unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; rest ] ->
                 Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

(* A metric as the result line carries it. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Every digit as measured; a non-finite value prints as invalid JSON,
   so run.py refuses the result instead of publishing a made-up 0. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* The last stdout line of a run: correctness verdict, operations
   attempted and failed, and the metrics by name with their units. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)

(* Human-readable summary lines printed before the result line. *)
let report_metrics ~workload metrics =
  List.iter
    (fun m -> Printf.printf "%-14s %-34s %14.4f %s\n" workload m.name m.value m.unit_)
    metrics
