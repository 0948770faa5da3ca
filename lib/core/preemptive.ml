module Link = Nocplan_noc.Link
module Processor = Nocplan_proc.Processor

type session = {
  module_id : int;
  source : Resource.endpoint;
  sink : Resource.endpoint;
  start : int;
  finish : int;
  patterns : int;
  power : float;
  links : Link.t list;
}

type plan = { sessions : session list; makespan : int }

let plan_of_sessions sessions =
  List.iter
    (fun s ->
      if s.start < 0 || s.finish < s.start then
        invalid_arg "Preemptive.plan_of_sessions: malformed interval";
      if s.patterns < 1 then
        invalid_arg "Preemptive.plan_of_sessions: patterns must be >= 1")
    sessions;
  let sessions =
    List.sort
      (fun a b ->
        let c = Int.compare a.start b.start in
        if c <> 0 then c else Int.compare a.module_id b.module_id)
      sessions
  in
  let makespan = List.fold_left (fun acc s -> max acc s.finish) 0 sessions in
  { sessions; makespan }

type config = {
  application : Processor.application;
  reuse : int;
  power_limit : float option;
  max_sessions : int;
}

let config ?(application = Processor.Bist) ?(power_limit = None)
    ?(max_sessions = 3) ~reuse () =
  if max_sessions < 1 then
    invalid_arg "Preemptive.config: max_sessions must be >= 1";
  { application; reuse; power_limit; max_sessions }

let schedule ?access system config =
  Scheduler.run_sessions ?access system ~application:config.application
    ~power_limit:config.power_limit ~reuse:config.reuse
    ~max_sessions:config.max_sessions
  |> List.map (fun ((e : Schedule.entry), patterns) ->
         { module_id = e.module_id; source = e.source; sink = e.sink;
           start = e.start; finish = e.finish; patterns; power = e.power;
           links = e.links })
  |> plan_of_sessions

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)

let validate system ~application ~power_limit ~reuse plan =
  Schedule.validate_sessions system ~application ~power_limit ~reuse
    (List.map
       (fun s ->
         ( {
             Schedule.module_id = s.module_id;
             source = s.source;
             sink = s.sink;
             start = s.start;
             finish = s.finish;
             power = s.power;
             links = s.links;
           },
           s.patterns ))
       plan.sessions)

let pp_session ppf s =
  Fmt.pf ppf "@[<h>[%d,%d) module %d (%d patterns): %a -> %a@]" s.start
    s.finish s.module_id s.patterns Resource.pp s.source Resource.pp s.sink

let pp_plan ppf plan =
  Fmt.pf ppf "@[<v>preemptive plan (makespan %d):@,%a@]" plan.makespan
    (Fmt.list ~sep:Fmt.cut pp_session)
    plan.sessions
