module Processor = Nocplan_proc.Processor

type result = {
  kept : Schedule.entry list;
  voided : Schedule.entry list;
  replanned : Schedule.entry list;
  makespan : int;
}

let after_fault ?(policy = Scheduler.Greedy)
    ?(application = Processor.Bist) ?(power_limit = None) ~reuse ~at ~failed
    system (schedule : Schedule.t) =
  if at < 0 then invalid_arg "Replan.after_fault: negative event time";
  let kept, voided =
    List.partition
      (fun (e : Schedule.entry) -> e.Schedule.finish <= at)
      schedule.Schedule.entries
  in
  let done_ids = List.map (fun (e : Schedule.entry) -> e.Schedule.module_id) kept in
  let remaining =
    List.filter
      (fun id -> not (List.mem id done_ids))
      (System.module_ids system)
  in
  let degraded = System.with_failed_links system failed in
  let pretested =
    List.filter (fun id -> System.is_processor_module system id) done_ids
  in
  let replanned =
    if remaining = [] then []
    else
      (Scheduler.run degraded
         (Scheduler.config ~policy ~application ~power_limit ~start_time:at
            ~modules:remaining ~pretested ~reuse ()))
        .Schedule.entries
  in
  let makespan =
    List.fold_left
      (fun acc (e : Schedule.entry) -> max acc e.Schedule.finish)
      0 (kept @ replanned)
  in
  { kept; voided; replanned; makespan }

let validate system ~application ~power_limit ~reuse ~at ~failed r =
  Schedule.validate_replan
    (System.with_failed_links system failed)
    ~application ~power_limit ~reuse ~at ~kept:r.kept r.replanned

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>replanned session (makespan %d):@,kept %d tests, voided %d, replanned %d@,%a@]"
    r.makespan (List.length r.kept) (List.length r.voided)
    (List.length r.replanned)
    (Fmt.list ~sep:Fmt.cut (fun ppf (e : Schedule.entry) ->
         Fmt.pf ppf "  [%d,%d) module %d: %a -> %a" e.Schedule.start
           e.Schedule.finish e.Schedule.module_id Resource.pp
           e.Schedule.source Resource.pp e.Schedule.sink))
    r.replanned
