module Processor = Nocplan_proc.Processor
module Trace = Nocplan_obs.Trace
module System = Nocplan_core.System
module Schedule = Nocplan_core.Schedule
module Scheduler = Nocplan_core.Scheduler
module Test_access = Nocplan_core.Test_access
module Resource = Nocplan_core.Resource

type outcome = {
  kept : Schedule.entry list;
  voided : Schedule.entry list;
  abandoned : int list;
  replanned : Schedule.entry list;
  makespan : int;
  availability : float;
}

let availability_of system ~abandoned =
  let total = List.length (System.module_ids system) in
  if total = 0 then 1.0
  else float_of_int (total - List.length abandoned) /. float_of_int total

let after_with_table ?(policy = Scheduler.Greedy)
    ?(application = Processor.Bist) ?(power_limit = None) ?(abandoned = [])
    ?access ~reuse ~at ~faults system (schedule : Schedule.t) =
  if at < 0 then invalid_arg "Recover.after: negative event time";
  Option.iter
    (fun a ->
      if Test_access.table_application a <> application then
        invalid_arg "Recover.after: access table of another application")
    access;
  Trace.span "fault.replan"
    ~attrs:
      [
        ("at", Trace.Int at);
        ("faults", Trace.Int (Detour.fault_count faults));
      ]
  @@ fun () ->
  let kept, voided =
    List.partition
      (fun (e : Schedule.entry) -> e.Schedule.finish <= at)
      schedule.Schedule.entries
  in
  let done_ids =
    List.map (fun (e : Schedule.entry) -> e.Schedule.module_id) kept
  in
  let remaining =
    List.filter
      (fun id -> (not (List.mem id done_ids)) && not (List.mem id abandoned))
      (System.module_ids system)
  in
  let topology = system.System.topology in
  let detour = Detour.table topology faults in
  let degraded =
    System.with_failed_links system (Detour.blocked_links topology faults)
  in
  (* The planning table with only what the new faults cut re-routed:
     the legs it kept are the detour router's own answers. *)
  let access =
    Test_access.table_degrade
      (match access with
      | Some a -> a
      | None -> Test_access.table ~application system)
      ~route:(Detour.route_fn detour) ~system:degraded
  in
  let endpoints = Resource.all_endpoints degraded ~reuse in
  let pretested =
    List.filter (fun id -> System.is_processor_module system id) done_ids
  in
  (* Which remaining modules can still be tested at all?  Closure over
     the endpoint pool: the pool starts as the external ports plus the
     pretested processors; a module is testable when some feasible
     pair draws only on the pool; a testable within-reuse processor
     then joins the pool.  Whatever the fixpoint leaves out has no
     test path on the degraded NoC and is abandoned — handing it to
     the scheduler would only deadlock it. *)
  let avail = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace avail id ()) pretested;
  let endpoint_live = function
    | Resource.External_in _ | Resource.External_out _ -> true
    | Resource.Processor id -> Hashtbl.mem avail id
  in
  let testable id =
    List.exists
      (fun src ->
        endpoint_live src
        && List.exists
             (fun snk ->
               endpoint_live snk
               && Resource.valid_pair ~source:src ~sink:snk
               && Test_access.table_feasible access ~module_id:id ~source:src
                    ~sink:snk)
             endpoints)
      endpoints
  in
  let schedulable = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if (not (Hashtbl.mem schedulable id)) && testable id then begin
          Hashtbl.replace schedulable id ();
          if
            System.is_processor_module system id
            && List.exists (Resource.equal (Resource.Processor id)) endpoints
          then Hashtbl.replace avail id ();
          changed := true
        end)
      remaining
  done;
  let schedulable_ids = List.filter (Hashtbl.mem schedulable) remaining in
  let newly_abandoned =
    List.filter (fun id -> not (Hashtbl.mem schedulable id)) remaining
  in
  let abandoned =
    List.sort_uniq Int.compare
      (List.filter (fun id -> not (List.mem id done_ids)) abandoned
      @ newly_abandoned)
  in
  let replanned =
    if schedulable_ids = [] then []
    else
      (Scheduler.run ~access degraded
         (Scheduler.config ~policy ~application ~power_limit ~start_time:at
            ~modules:schedulable_ids ~pretested ~reuse ()))
        .Schedule.entries
  in
  let makespan =
    List.fold_left
      (fun acc (e : Schedule.entry) -> max acc e.Schedule.finish)
      0 (kept @ replanned)
  in
  ( {
      kept;
      voided;
      abandoned;
      replanned;
      makespan;
      availability = availability_of system ~abandoned;
    },
    access )

let after ?policy ?application ?power_limit ?abandoned ?access ~reuse ~at
    ~faults system schedule =
  fst
    (after_with_table ?policy ?application ?power_limit ?abandoned ?access
       ~reuse ~at ~faults system schedule)

let validate ?(application = Processor.Bist) ~power_limit ~reuse ~at ~faults
    system o =
  let topology = system.System.topology in
  let degraded =
    System.with_failed_links system (Detour.blocked_links topology faults)
  in
  Schedule.validate_replan degraded
    ~access:
      (Test_access.table ~application
         ~route:(Detour.route_fn (Detour.table topology faults))
         degraded)
    ~abandoned:o.abandoned ~application ~power_limit ~reuse ~at ~kept:o.kept
    o.replanned

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>fault recovery (makespan %d, availability %.3f):@,\
     kept %d tests, voided %d, abandoned %d, replanned %d@,\
     %a@]"
    o.makespan o.availability (List.length o.kept) (List.length o.voided)
    (List.length o.abandoned)
    (List.length o.replanned)
    (Fmt.list ~sep:Fmt.cut (fun ppf (e : Schedule.entry) ->
         Fmt.pf ppf "  [%d,%d) module %d: %a -> %a" e.Schedule.start
           e.Schedule.finish e.Schedule.module_id Resource.pp
           e.Schedule.source Resource.pp e.Schedule.sink))
    o.replanned
