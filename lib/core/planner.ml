module Processor = Nocplan_proc.Processor
module Trace = Nocplan_obs.Trace

type point = {
  reuse : int;
  makespan : int;
  peak_power : float;
  validated : bool;
}

type sweep = {
  system_name : string;
  policy : Scheduler.policy;
  power_limit_pct : float option;
  points : point list;
}

let absolute_limit system = function
  | None -> None
  | Some pct -> Some (System.power_limit_of_pct system ~pct)

let run_point ?access system ~policy ~application ~power_limit ~reuse =
  let config = Scheduler.config ~policy ~application ~power_limit ~reuse () in
  let sched = Scheduler.run ?access system config in
  let validated =
    match
      Schedule.validate ?access system ~application ~power_limit ~reuse sched
    with
    | Ok () -> true
    | Error _ -> false
  in
  let peak_power = Metrics.peak_power sched.Schedule.entries in
  ({ reuse; makespan = sched.Schedule.makespan; peak_power; validated }, sched)

let schedule ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?power_limit_pct ~reuse system =
  let power_limit = absolute_limit system power_limit_pct in
  snd (run_point system ~policy ~application ~power_limit ~reuse)

let reuse_sweep ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?power_limit_pct ?max_reuse ?access system =
  let max_reuse =
    match max_reuse with
    | Some n -> n
    | None -> List.length system.System.processors
  in
  let power_limit = absolute_limit system power_limit_pct in
  (* One access table serves every point of the sweep: the cost model
     is reuse- and power-invariant.  A caller running several sweeps
     over the same system can pass its own table to share it across
     them too. *)
  let access =
    match access with
    | Some tbl when Test_access.table_for tbl ~system ~application -> tbl
    | Some _ | None -> Test_access.table ~application system
  in
  let evaluate reuse =
    if not (Trace.enabled ()) then
      fst (run_point ~access system ~policy ~application ~power_limit ~reuse)
    else begin
      Trace.begin_span "planner.point" ~attrs:[ ("reuse", Trace.Int reuse) ];
      match
        fst (run_point ~access system ~policy ~application ~power_limit ~reuse)
      with
      | p ->
          Trace.end_span "planner.point"
            ~attrs:[ ("makespan", Trace.Int p.makespan) ];
          p
      | exception exn ->
          Trace.end_span "planner.point" ~attrs:[ ("raised", Trace.Bool true) ];
          raise exn
    end
  in
  Trace.span "planner.sweep"
    ~attrs:
      [
        ( "system",
          Trace.String system.System.soc.Nocplan_itc02.Soc.name );
        ("policy", Trace.String (Fmt.str "%a" Scheduler.pp_policy policy));
        ("points", Trace.Int (max_reuse + 1));
      ]
  @@ fun () ->
  let points = List.init (max_reuse + 1) evaluate in
  {
    system_name = system.System.soc.Nocplan_itc02.Soc.name;
    policy;
    power_limit_pct;
    points;
  }

let power_sweep ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?access ~reuse ~pcts system =
  let access =
    match access with
    | Some tbl when Test_access.table_for tbl ~system ~application -> tbl
    | Some _ | None -> Test_access.table ~application system
  in
  List.map
    (fun pct ->
      Trace.span "planner.power_point" ~attrs:[ ("pct", Trace.Float pct) ]
      @@ fun () ->
      let power_limit = absolute_limit system (Some pct) in
      ( pct,
        fst (run_point ~access system ~policy ~application ~power_limit ~reuse)
      ))
    pcts

let reduction_pct ~baseline makespan =
  if baseline <= 0 then invalid_arg "Planner.reduction_pct: bad baseline";
  100.0 *. (1.0 -. (float_of_int makespan /. float_of_int baseline))

let best_point sweep =
  match sweep.points with
  | [] -> invalid_arg "Planner.best_point: empty sweep"
  | p :: rest ->
      List.fold_left
        (fun best q -> if q.makespan < best.makespan then q else best)
        p rest

let baseline_point sweep =
  match List.find_opt (fun p -> p.reuse = 0) sweep.points with
  | Some p -> p
  | None -> invalid_arg "Planner.baseline_point: sweep has no reuse=0 point"

let pp_sweep ppf sweep =
  let baseline = (baseline_point sweep).makespan in
  let pp_point ppf p =
    Fmt.pf ppf "@[<h>reuse %2d: makespan %9d  (%+.1f%%)  peak %8.1f  %s@]"
      p.reuse p.makespan
      (-.reduction_pct ~baseline p.makespan)
      p.peak_power
      (if p.validated then "ok" else "INVALID")
  in
  Fmt.pf ppf "@[<v>%s [%a%a]@,%a@]" sweep.system_name Scheduler.pp_policy
    sweep.policy
    (Fmt.option (fun ppf pct -> Fmt.pf ppf ", power %.0f%%" pct))
    sweep.power_limit_pct
    (Fmt.list ~sep:Fmt.cut pp_point)
    sweep.points
