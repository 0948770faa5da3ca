module Coord = Nocplan_noc.Coord
module Link = Nocplan_noc.Link
module Topology = Nocplan_noc.Topology
module System = Nocplan_core.System
module Schedule = Nocplan_core.Schedule
module Scheduler = Nocplan_core.Scheduler
module Test_access = Nocplan_core.Test_access
module Processor = Nocplan_proc.Processor
module Trace = Nocplan_obs.Trace
module Rng = Nocplan_itc02.Data_gen.Rng

type target = Router of Coord.t | Channel of Link.t

let pp_target ppf = function
  | Router c -> Fmt.pf ppf "router %a" Coord.pp c
  | Channel l -> Fmt.pf ppf "channel %a" Link.pp l

type event = { at : int; target : target }

let pp_event ppf e = Fmt.pf ppf "@%d %a" e.at pp_target e.target

let candidates topology =
  List.map (fun c -> Router c) (Topology.coords topology)
  @ List.concat_map
      (fun c ->
        List.map (fun nb -> Channel (Link.channel c nb)) (Topology.neighbors topology c))
      (Topology.coords topology)

let draw ~seed ~rate ~horizon topology =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Injector.draw: rate outside [0, 1]";
  if horizon < 1 then invalid_arg "Injector.draw: horizon < 1";
  let targets = Array.of_list (candidates topology) in
  let n = Array.length targets in
  let rng = Rng.create (Int64.of_int seed) in
  (* One permutation and one time per candidate, drawn up front: a
     higher rate takes a longer prefix of the same sequence, so the
     fault sets of a sweep are nested and the injected count is
     monotone in rate by construction.  (Availability is not: replans
     caused by the extra faults can reorder work around later shared
     faults.) *)
  for i = n - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let tmp = targets.(i) in
    targets.(i) <- targets.(j);
    targets.(j) <- tmp
  done;
  let times = Array.init n (fun _ -> Rng.int_range rng ~lo:1 ~hi:horizon) in
  let k = min n (int_of_float (Float.round (rate *. float_of_int n))) in
  List.stable_sort
    (fun a b -> Int.compare a.at b.at)
    (List.init k (fun i -> { at = times.(i); target = targets.(i) }))

let fault_set_of targets =
  Detour.fault_set
    ~routers:(List.filter_map (function Router c -> Some c | _ -> None) targets)
    ~links:(List.filter_map (function Channel l -> Some l | _ -> None) targets)
    ()

type step = {
  at : int;
  injected : target list;
  faults : Detour.fault_set;  (* cumulative, after this step *)
  outcome : Recover.outcome;
}

type run = {
  baseline : Schedule.t;
  steps : step list;
  schedule : Schedule.t;
  faults : Detour.fault_set;
  abandoned : int list;
  makespan : int;
  availability : float;
  replans : int;
}

(* The campaign from an already computed fault-free [baseline] and the
   XY table [access] it was planned on, so a {!sweep} builds both once
   for all its rates.  Each step degrades the table the previous step
   planned on: the fault sets only grow. *)
let run_from ~policy ~application ~power_limit ~reuse ~access ~baseline
    ~events system =
  let rec group = function
    | [] -> []
    | (e : event) :: rest ->
        let same, others =
          List.partition (fun (e' : event) -> e'.at = e.at) rest
        in
        (e.at, e.target :: List.map (fun (e' : event) -> e'.target) same)
        :: group others
  in
  let groups =
    group
      (List.stable_sort
         (fun (a : event) (b : event) -> Int.compare a.at b.at)
         events)
  in
  let step_fold (sched, access, faults, abandoned, steps) (at, targets) =
    let faults = Detour.union faults (fault_set_of targets) in
    Trace.instant "fault.inject"
      ~attrs:
        [ ("at", Trace.Int at); ("targets", Trace.Int (List.length targets)) ];
    let outcome, access =
      Recover.after_with_table ~policy ~application ~power_limit ~abandoned
        ~access ~reuse ~at ~faults system sched
    in
    let sched' =
      Schedule.of_entries (outcome.Recover.kept @ outcome.Recover.replanned)
    in
    ( sched',
      access,
      faults,
      outcome.Recover.abandoned,
      { at; injected = targets; faults; outcome } :: steps )
  in
  let schedule, _, faults, abandoned, steps_rev =
    List.fold_left step_fold
      (baseline, access, Detour.no_faults, [], [])
      groups
  in
  {
    baseline;
    steps = List.rev steps_rev;
    schedule;
    faults;
    abandoned;
    makespan = schedule.Schedule.makespan;
    availability = Recover.availability_of system ~abandoned;
    replans = List.length groups;
  }

(* The fault-free schedule and the XY table it was planned on: the
   caller's [access], or one built here. *)
let fault_free ?access ~policy ~application ~power_limit ~reuse system =
  let access =
    match access with
    | None -> Test_access.table ~application system
    | Some t ->
        if
          Test_access.table_routed t
          || not (Test_access.table_for t ~system ~application)
        then
          invalid_arg
            "Injector.sweep: access table not built on XY routes for this \
             system and application";
        t
  in
  ( access,
    Scheduler.run ~access system
      (Scheduler.config ~policy ~application ~power_limit ~reuse ()) )

let run ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?(power_limit = None) ~reuse ~events system =
  let access, baseline =
    fault_free ~policy ~application ~power_limit ~reuse system
  in
  run_from ~policy ~application ~power_limit ~reuse ~access ~baseline ~events
    system

type point = {
  rate : float;
  injected : int;
  availability : float;
  makespan : int;
  abandoned_count : int;
  replans : int;
}

let sweep ?(policy = Scheduler.Greedy) ?(application = Processor.Bist)
    ?(power_limit = None) ?access ~reuse ~seed ~rates system =
  let access, baseline =
    fault_free ?access ~policy ~application ~power_limit ~reuse system
  in
  let horizon = max 1 baseline.Schedule.makespan in
  List.map
    (fun rate ->
      let events = draw ~seed ~rate ~horizon system.System.topology in
      let r =
        run_from ~policy ~application ~power_limit ~reuse ~access ~baseline
          ~events system
      in
      ( {
          rate;
          injected = List.length events;
          availability = r.availability;
          makespan = r.makespan;
          abandoned_count = List.length r.abandoned;
          replans = r.replans;
        },
        r ))
    rates

let pp_point ppf p =
  Fmt.pf ppf
    "rate %.3f: %d faults, %d replans, %d abandoned, availability %.3f, makespan %d"
    p.rate p.injected p.replans p.abandoned_count p.availability p.makespan
