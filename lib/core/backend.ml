module Trace = Nocplan_obs.Trace

type capabilities = { honors_order : bool; honors_policy : bool }

type t = {
  name : string;
  capabilities : capabilities;
  solve :
    ?access:Test_access.table -> System.t -> Scheduler.config -> Schedule.t;
}

let greedy =
  {
    name = "greedy";
    capabilities = { honors_order = true; honors_policy = true };
    solve = Scheduler.run;
  }

let binpack =
  {
    name = "binpack";
    capabilities = { honors_order = false; honors_policy = false };
    solve = Binpack.schedule;
  }

let builtins = [ greedy; binpack ]

(* Registration is process-global, like the trace collector; the
   mutex only matters for exotic registrars, lookups copy the list. *)
let registry_mutex = Mutex.create ()
let registry = ref builtins

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) (fun () ->
      f registry)

let names () = with_registry (fun r -> List.map (fun b -> b.name) !r)

let find name =
  with_registry (fun r -> List.find_opt (fun b -> b.name = name) !r)

let register b =
  with_registry (fun r ->
      if List.exists (fun b' -> b'.name = b.name) !r then
        invalid_arg (Fmt.str "Backend.register: %S already registered" b.name);
      r := !r @ [ b ])

let solve b ?access system config =
  Trace.span "backend.solve"
    ~attrs:[ ("backend", Trace.String b.name) ]
    (fun () -> b.solve ?access system config)

type attempt = {
  backend : string;
  outcome : (Schedule.t, string) result;
  valid : bool;
  latency_s : float;
}

type outcome = { winner : string; schedule : Schedule.t; attempts : attempt list }

let race ?(clock = Sys.time) ?(backends = builtins) ?access system
    (config : Scheduler.config) =
  if backends = [] then invalid_arg "Backend.race: no backends";
  let attempt b =
    let t0 = clock () in
    let outcome =
      match solve b ?access system config with
      | s -> Ok s
      | exception Scheduler.Unschedulable msg -> Error msg
      | exception Invalid_argument msg -> Error msg
    in
    let latency_s = clock () -. t0 in
    let valid =
      match outcome with
      | Error _ -> false
      | Ok s ->
          Schedule.validate ?access ~start_time:config.start_time
            ?modules:config.modules ~pretested:config.pretested
            ~link_ready:config.link_ready system
            ~application:config.application ~power_limit:config.power_limit
            ~reuse:config.reuse s
          = Ok ()
    in
    { backend = b.name; outcome; valid; latency_s }
  in
  let attempts =
    match backends with
    | [ b ] -> [ attempt b ]
    | first :: rest ->
        (* One spawned domain per extra backend; the first runs here,
           so a single-backend race costs no spawn at all. *)
        let domains = List.map (fun b -> Domain.spawn (fun () -> attempt b)) rest in
        let a0 = attempt first in
        a0 :: List.map Domain.join domains
    | [] -> assert false
  in
  let best =
    List.fold_left
      (fun acc a ->
        match (acc, a.valid, a.outcome) with
        | None, true, Ok s -> Some (a, s)
        | Some (_, s'), true, Ok s
          when s.Schedule.makespan < s'.Schedule.makespan ->
            Some (a, s)
        | _ -> acc)
      None attempts
  in
  match best with
  | Some (a, s) -> { winner = a.backend; schedule = s; attempts }
  | None ->
      let summarize a =
        Fmt.str "%s: %s" a.backend
          (match a.outcome with
          | Error msg -> msg
          | Ok _ -> "schedule failed independent validation")
      in
      raise
        (Scheduler.Unschedulable
           (Fmt.str "race: no backend produced a valid schedule (%s)"
              (String.concat "; " (List.map summarize attempts))))
