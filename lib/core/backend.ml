module Trace = Nocplan_obs.Trace

type t = {
  name : string;
  solve :
    ?access:Test_access.table -> System.t -> Scheduler.config -> Schedule.t;
}

let greedy = { name = "greedy"; solve = Scheduler.run }
let binpack = { name = "binpack"; solve = Binpack.schedule }
let builtins = [ greedy; binpack ]
let find name = List.find_opt (fun b -> b.name = name) builtins

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
  (* One table for every racer: each backend would otherwise build the
     same full-reuse table for itself.  A build that fails is what each
     backend's own build would have raised, so it becomes every
     attempt's error and the race fails with the same aggregated
     report as when each backend failed on its own. *)
  let shared =
    match access with
    | Some t -> Ok t
    | None -> (
        match Test_access.table ~application:config.application system with
        | t -> Ok t
        | exception Scheduler.Unschedulable msg -> Error msg
        | exception Invalid_argument msg -> Error msg)
  in
  let attempt b =
    match shared with
    | Error msg ->
        { backend = b.name; outcome = Error msg; valid = false; latency_s = 0.0 }
    | Ok table ->
        let t0 = clock () in
        let outcome =
          match solve b ~access:table system config with
          | s -> Ok s
          | exception Scheduler.Unschedulable msg -> Error msg
          | exception Invalid_argument msg -> Error msg
        in
        let latency_s = clock () -. t0 in
        (* Validated against the caller's table, not the shared one: a
           race given none is checked on the single-pair reference
           costs, independently of the table the backends planned on. *)
        let valid =
          match outcome with
          | Error _ -> false
          | Ok s ->
              Schedule.validate ?access ~start_time:config.start_time
                ?modules:config.modules ~pretested:config.pretested
                ~link_ready:config.link_ready system
                ~application:config.application
                ~power_limit:config.power_limit ~reuse:config.reuse s
              = Ok ()
        in
        { backend = b.name; outcome; valid; latency_s }
  in
  (* In sequence in the calling domain: a spawned domain per racer
     costs more than binpack itself and oversubscribes callers that
     already run one domain per core. *)
  let attempts = List.map attempt backends in
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
