(* The benchmark program: one workload per invocation.

     bench.exe WORKLOAD --seed N --seconds S --trace 0|1
               [--nocplan PATH] [--scratch DIR]
     bench.exe setup WORKLOAD               (set-up probe, prints "ready")
     bench.exe figure1-series               (regenerates figure1.expected)

   WORKLOAD is paper-sweep, serve-mix or corpus-verify.  With --trace 0
   it prints the end-to-end metrics, with --trace 1 the per-layer ones;
   the last stdout line is the JSON result.  Exit status: 0 when every
   operation passed its oracle, 1 when one did not, 2 on a harness
   error (then no result line is printed).  Run it from the repository
   root: the paper-sweep oracle and the testplan are read from there. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe (paper-sweep|serve-mix|corpus-verify) --seed N --seconds S --trace 0|1 \
     [--nocplan PATH] [--scratch DIR]";
  exit 2

let setup_trials = 12

(* Start this executable in set-up mode [n] times, timing each from
   spawn until it reports ready. *)
let setup_times workload n =
  let trial () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = Util.now () in
    let exe = Sys.executable_name in
    let pid =
      Unix.create_process exe
        [| exe; "setup"; workload |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = In_channel.input_line ic in
    let dt = Util.now () -. t0 in
    close_in ic;
    match (Unix.waitpid [] pid, line) with
    | (_, Unix.WEXITED 0), Some "ready" -> dt
    | _ -> failwith (workload ^ ": set-up probe failed")
  in
  List.init n (fun _ -> trial ())

(* Run [measure] between two halves of the set-up trials, so their
   median does not hang on one spell of a shared host; the set-up time
   goes first in the metrics. *)
let with_setup workload measure =
  let before = setup_times workload (setup_trials / 2) in
  let correct, attempted, failed, metrics = measure () in
  let after = setup_times workload (setup_trials - (setup_trials / 2)) in
  let setup_s = Util.median (before @ after) in
  (correct, attempted, failed, Util.metric "setup_s" "s" setup_s :: metrics)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name default =
    match opt name args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let seed = int_opt "--seed" 1 in
  try
    match args with
    | "figure1-series" :: _ -> Paper_sweep.print_series ()
    | "setup" :: workload :: _ ->
        (match workload with
        | "paper-sweep" -> ignore (Paper_sweep.setup ())
        | "corpus-verify" -> ignore (Corpus_verify.setup ())
        | _ -> usage ());
        print_endline "ready"
    | workload :: _ ->
        let seconds = float_of_int (int_opt "--seconds" 10) in
        let trace = int_opt "--trace" 0 = 1 in
        let nocplan = Option.value (opt "--nocplan" args) ~default:"_build/default/bin/nocplan.exe" in
        let scratch = Option.value (opt "--scratch" args) ~default:Filename.current_dir_name in
        let correct, attempted, failed, metrics =
          match (workload, trace) with
          | "paper-sweep", false ->
              with_setup workload (fun () ->
                  let a, f, m = Paper_sweep.end_to_end ~seed ~seconds in
                  (true, a, f, m))
          | "paper-sweep", true ->
              let a, f, m = Paper_sweep.per_layer ~seed ~seconds in
              (true, a, f, m)
          | "corpus-verify", false ->
              with_setup workload (fun () -> Corpus_verify.end_to_end ~seed ~seconds)
          | "corpus-verify", true -> Corpus_verify.per_layer ~seed ~seconds
          | "serve-mix", false -> Serve_mix.end_to_end ~nocplan ~seed ~seconds
          | "serve-mix", true -> Serve_mix.per_layer ~nocplan ~seed ~seconds ~scratch
          | _ -> usage ()
        in
        let correct = correct && failed = 0 in
        Util.report_metrics ~workload metrics;
        Printf.printf "%s: %d operations attempted, %d failed, oracle %s\n" workload attempted
          failed
          (if correct then "passed" else "FAILED");
        print_endline (Util.result_line ~correct ~attempted ~failed metrics);
        exit (if correct then 0 else 1)
    | [] -> usage ()
  with
  | Failure msg | Sys_error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "bench: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2
