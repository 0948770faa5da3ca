module Module_def = Nocplan_itc02.Module_def
module Wrapper = Nocplan_itc02.Wrapper
module Soc = Nocplan_itc02.Soc
module Xy = Nocplan_noc.Xy_routing
module Link = Nocplan_noc.Link
module Latency = Nocplan_noc.Latency
module Power = Nocplan_noc.Power
module Coord = Nocplan_noc.Coord
module Processor = Nocplan_proc.Processor
module Characterization = Nocplan_proc.Characterization

type cost = {
  duration : int;
  power : float;
  links : Link.t list;
  routers : int;
  per_pattern : int;
}

(* Source-side steady overhead and one-time setup, and the power the
   endpoint draws. *)
let source_profile system ~application = function
  | Resource.External_in _ -> (0, 0, 0.0)
  | Resource.External_out _ ->
      invalid_arg "Test_access: External_out cannot source"
  | Resource.Processor id -> (
      match System.processor_of_module system id with
      | None -> invalid_arg "Test_access: source is not a processor"
      | Some p ->
          let c = Processor.source_characterization p.System.processor application in
          ( Processor.generation_overhead p.System.processor application,
            c.Characterization.setup_cycles,
            c.Characterization.power ))

let sink_profile system = function
  | Resource.External_out _ -> (0, 0, 0.0)
  | Resource.External_in _ -> invalid_arg "Test_access: External_in cannot sink"
  | Resource.Processor id -> (
      match System.processor_of_module system id with
      | None -> invalid_arg "Test_access: sink is not a processor"
      | Some p ->
          let c = p.System.processor.Processor.sink in
          ( int_of_float (Float.round c.Characterization.cycles_per_pattern),
            c.Characterization.setup_cycles,
            c.Characterization.power ))

let distinct_routers routes =
  List.sort_uniq Coord.compare (List.concat routes) |> List.length

(* The two halves of a test path, evaluated independently so the table
   can compute them once per (module, endpoint) instead of once per
   (module, source, sink) triple.  Transport: one flit per shift cycle
   per direction, plus a header flit per pattern packet.  The cadence
   term follows the sustainable wormhole model verified against the
   flit-level simulator by Schedule_sim: under back-to-back packets the
   successor's header trails the predecessor's tail by the routing
   setup at every one of the [hops + 2] port/channel crossings, on top
   of the flits' flow-control slots. *)
type source_leg = {
  gen_overhead : int;
  src_setup : int;
  src_power : float;
  links_in : Link.Set.t;
  route_in : Coord.t list;
  fill_in : int;
  transport_in : int;
}

type sink_leg = {
  sink_overhead : int;
  sink_setup : int;
  sink_power : float;
  links_out : Link.Set.t;
  route_out : Coord.t list;
  fill_out : int;
  transport_out : int;
  drain : int;
}

(* Both leg builders price an explicit router path (adjacent tiles,
   inclusive): the XY path in the classic case, a detour path when the
   table carries a custom route function.  Hops and the channel set
   fall out of the path itself, so the wormhole model prices a longer
   detour honestly (more fill, more routing setup, more routers). *)
let source_leg_of_route system ~application ~flits_in source route_in =
  let latency = system.System.latency in
  let flow = Latency.stream_cycle_per_flit latency in
  let routing = latency.Latency.routing_latency in
  let gen_overhead, src_setup, src_power =
    source_profile system ~application source
  in
  let hops_in = List.length route_in - 1 in
  {
    gen_overhead;
    src_setup;
    src_power;
    links_in = Link.Set.of_list (Xy.links_of_route route_in);
    route_in;
    fill_in = Latency.header_latency latency ~hops:hops_in;
    transport_in = ((hops_in + 2) * routing) + (flits_in * flow);
  }

let source_leg system ~application ~cut ~flits_in source =
  let src = Resource.coord system source in
  source_leg_of_route system ~application ~flits_in source
    (Xy.route system.System.topology ~src ~dst:cut)

let sink_leg_of_route system ~flits_out sink route_out =
  let latency = system.System.latency in
  let flow = Latency.stream_cycle_per_flit latency in
  let routing = latency.Latency.routing_latency in
  let sink_overhead, sink_setup, sink_power = sink_profile system sink in
  let hops_out = List.length route_out - 1 in
  {
    sink_overhead;
    sink_setup;
    sink_power;
    links_out = Link.Set.of_list (Xy.links_of_route route_out);
    route_out;
    fill_out = Latency.header_latency latency ~hops:hops_out;
    transport_out = ((hops_out + 2) * routing) + (flits_out * flow);
    (* After the last pattern slot the final response still drains
       through the sink path. *)
    drain = flits_out * flow;
  }

let sink_leg system ~cut ~flits_out sink =
  let snk = Resource.coord system sink in
  sink_leg_of_route system ~flits_out sink
    (Xy.route system.System.topology ~src:cut ~dst:snk)

let combine_legs system ~m ~shift_cycles ~pattern_count sleg kleg =
  let paths_shared =
    not (Link.Set.is_empty (Link.Set.inter sleg.links_in kleg.links_out))
  in
  (* If the two paths share a channel, the stimulus and response
     streams serialize on it and their occupancies add up. *)
  let transport =
    if paths_shared then sleg.transport_in + kleg.transport_out
    else max sleg.transport_in kleg.transport_out
  in
  let per_pattern =
    max shift_cycles transport + sleg.gen_overhead + kleg.sink_overhead
  in
  let duration =
    sleg.src_setup + kleg.sink_setup + sleg.fill_in + kleg.fill_out
    + (pattern_count * per_pattern)
    + kleg.drain
  in
  let links = Link.Set.elements (Link.Set.union sleg.links_in kleg.links_out) in
  let routers = distinct_routers [ sleg.route_in; kleg.route_out ] in
  let power =
    m.Module_def.test_power +. sleg.src_power +. kleg.sink_power
    +. Power.stream_power system.System.noc_power ~routers
  in
  { duration; power; links; routers; per_pattern }

(* The cost computation with the module record and its wrapper design
   already in hand — the wrapper is the expensive, per-module part (an
   LPT partition over every wrapper cell), so {!table} computes it once
   per module instead of once per (module, source, sink) triple. *)
let cost_with_wrapper system ~application ~m ~wrapper ~pattern_count ~module_id
    ~source ~sink =
  let cut = System.coord_of_module system module_id in
  let flits_in = wrapper.Wrapper.scan_in_max + 1 in
  let flits_out = wrapper.Wrapper.scan_out_max + 1 in
  let shift_cycles = Wrapper.pattern_cycles wrapper in
  combine_legs system ~m ~shift_cycles ~pattern_count
    (source_leg system ~application ~cut ~flits_in source)
    (sink_leg system ~cut ~flits_out sink)

let cost ?patterns system ~application ~module_id ~source ~sink =
  if not (Resource.valid_pair ~source ~sink) then
    invalid_arg "Test_access.cost: invalid source/sink pair";
  let m =
    match Soc.find system.System.soc module_id with
    | m -> m
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Test_access.cost: unknown module %d" module_id)
  in
  let pattern_count =
    match patterns with
    | None -> m.Module_def.patterns
    | Some p ->
        if p < 1 then invalid_arg "Test_access.cost: patterns must be >= 1";
        p
  in
  let wrapper = Wrapper.design ~width:system.System.flit_width m in
  cost_with_wrapper system ~application ~m ~wrapper ~pattern_count ~module_id
    ~source ~sink

let assumed_run_length = 4

let decompression_footprint_of_wrapper (m : Module_def.t) wrapper =
  let words = max 1 (m.Module_def.patterns * (wrapper.Wrapper.scan_in_max + 1)) in
  Nocplan_proc.Decompress.estimated_memory_words ~words
    ~mean_run_length:assumed_run_length

let decompression_footprint system ~module_id =
  let m =
    match Soc.find system.System.soc module_id with
    | m -> m
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Test_access.decompression_footprint: unknown module %d"
             module_id)
  in
  let wrapper = Wrapper.design ~width:system.System.flit_width m in
  decompression_footprint_of_wrapper m wrapper

let decompression_footprint_measured
    ?(style = Nocplan_proc.Test_data.Atpg 0.05) ?(seed = 7L) system
    ~module_id =
  let m =
    match Soc.find system.System.soc module_id with
    | m -> m
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf
             "Test_access.decompression_footprint_measured: unknown module %d"
             module_id)
  in
  Nocplan_proc.Test_data.measured_memory_words style ~seed
    ~flit_width:system.System.flit_width m

let memory_feasible_of_footprint system ~application ~footprint ~source =
  match (application, source) with
  | Processor.Bist, _
  | Processor.Decompression, (Resource.External_in _ | Resource.External_out _)
    ->
      true
  | Processor.Decompression, Resource.Processor id -> (
      match System.processor_of_module system id with
      | Some p -> footprint <= Processor.memory_capacity p.System.processor
      | None -> false)

let memory_feasible system ~application ~module_id ~source =
  match (application, source) with
  | Processor.Bist, _
  | Processor.Decompression, (Resource.External_in _ | Resource.External_out _)
    ->
      true
  | Processor.Decompression, Resource.Processor id -> (
      match System.processor_of_module system id with
      | Some p ->
          decompression_footprint system ~module_id
          <= Processor.memory_capacity p.System.processor
      | None -> false)

let route_feasible system ~module_id ~source ~sink =
  let failed = system.System.failed_links in
  Link.Set.is_empty failed
  ||
  let cut = System.coord_of_module system module_id in
  let src = Resource.coord system source in
  let snk = Resource.coord system sink in
  let topology = system.System.topology in
  List.for_all
    (fun l -> not (Link.Set.mem l failed))
    (Xy.links topology ~src ~dst:cut @ Xy.links topology ~src:cut ~dst:snk)

let feasible system ~application ~module_id ~source ~sink =
  Resource.valid_pair ~source ~sink
  && route_feasible system ~module_id ~source ~sink
  && memory_feasible system ~application ~module_id ~source

(* ------------------------------------------------------------------ *)
(* Precomputed access table                                           *)

type route_fn = src:Coord.t -> dst:Coord.t -> Coord.t list option

type table = {
  table_system : System.t;
  table_application : Processor.application;
  table_route : route_fn option;
      (** custom unicast routing (fault-aware detours); [None] means
          deterministic XY.  [Some f] with [f] returning [None] marks
          the (src, dst) pair unreachable: every cell needing that leg
          is infeasible with no cost. *)
  endpoints : Resource.endpoint array;
  endpoint_ids : (Resource.endpoint, int) Hashtbl.t;
  module_rows : (int, int) Hashtbl.t;
  width : int;  (** endpoint count — stride of one (module, source) row *)
  feasible_bits : bool array;  (** row-major [module][source][sink] *)
  route_bits : bool array;  (** row-major [module][source][sink] *)
  memory_bits : bool array;  (** row-major [module][source] *)
  costs : cost option array;  (** [None] on an invalid source/sink pair *)
  channels : int array array;
      (** row-major [module][source][sink]: the dense channel ids of
          the pair's path links (empty on an invalid pair), numbered
          per table for the {!Nocplan_noc.Reservation} calendar *)
  channel_ids : (Link.t, int) Hashtbl.t;
      (** the dense numbering itself, link -> channel id in first-use
          order.  Kept so {!table_rebuild} can extend the numbering of
          its base table instead of renumbering: a calendar populated
          under the base table stays valid under the rebuilt one. *)
}

(* Dense per-table channel numbering: every distinct link routed over
   by any (module, source, sink) pair gets one id, in first-use order —
   the reservation calendar indexes by it. *)
let channels_of_links t links =
  Array.of_list
    (List.map
       (fun l ->
         match Hashtbl.find_opt t.channel_ids l with
         | Some c -> c
         | None ->
             let c = Hashtbl.length t.channel_ids in
             Hashtbl.add t.channel_ids l c;
             c)
       links)

(* Fill one module's row of the table — every (source, sink) cell plus
   the per-source memory bits.  Shared by {!table} (every row, in order)
   and {!table_rebuild} (affected rows only). *)
let fill_row t row module_id =
  let system = t.table_system in
  let application = t.table_application in
  let endpoints = t.endpoints in
  let n = t.width in
  let no_failed = Link.Set.is_empty system.System.failed_links in
  let m = Soc.find system.System.soc module_id in
  (* The expensive per-module invariants, computed once. *)
  let wrapper = Wrapper.design ~width:system.System.flit_width m in
  let footprint =
    match application with
    | Processor.Bist -> 0
    | Processor.Decompression -> decompression_footprint_of_wrapper m wrapper
  in
  let cut = System.coord_of_module system module_id in
  let flits_in = wrapper.Wrapper.scan_in_max + 1 in
  let flits_out = wrapper.Wrapper.scan_out_max + 1 in
  let shift_cycles = Wrapper.pattern_cycles wrapper in
  (* Per-endpoint path legs, computed once per (module, endpoint)
     instead of once per (module, source, sink) triple. *)
  let topology = system.System.topology in
  let resolve ~src ~dst =
    match t.table_route with
    | None -> Some (Xy.route topology ~src ~dst)
    | Some f -> f ~src ~dst
  in
  let in_routes =
    Array.map
      (fun e -> resolve ~src:(Resource.coord system e) ~dst:cut)
      endpoints
  in
  let out_routes =
    Array.map
      (fun e -> resolve ~src:cut ~dst:(Resource.coord system e))
      endpoints
  in
  let source_legs =
    Array.mapi
      (fun i e ->
        match in_routes.(i) with
        | Some r when Resource.can_source e ->
            Some (source_leg_of_route system ~application ~flits_in e r)
        | Some _ | None -> None)
      endpoints
  in
  let sink_legs =
    Array.mapi
      (fun i e ->
        match out_routes.(i) with
        | Some r when Resource.can_sink e ->
            Some (sink_leg_of_route system ~flits_out e r)
        | Some _ | None -> None)
      endpoints
  in
  (* Route survivability of each path leg, for any endpoint — the
     validator probes arbitrary (source, sink) combinations, so
     these cover even endpoints that cannot legally play the role.
     Under a custom router a leg survives iff the router produced a
     path (which must itself avoid the faulty channels). *)
  let link_ok l = not (Link.Set.mem l system.System.failed_links) in
  let leg_ok routes =
    if no_failed && Option.is_none t.table_route then Array.make n true
    else
      Array.map
        (function
          | None -> false
          | Some r -> List.for_all link_ok (Xy.links_of_route r))
        routes
  in
  let in_route_ok = leg_ok in_routes in
  let out_route_ok = leg_ok out_routes in
  let base = row * n * n in
  Array.iteri
    (fun si source ->
      t.memory_bits.((row * n) + si) <-
        memory_feasible_of_footprint system ~application ~footprint ~source;
      Array.iteri
        (fun ki sink ->
          let idx = base + (si * n) + ki in
          t.route_bits.(idx) <- in_route_ok.(si) && out_route_ok.(ki);
          if Resource.valid_pair ~source ~sink then begin
            match (source_legs.(si), sink_legs.(ki)) with
            | Some sleg, Some kleg ->
                let c =
                  combine_legs system ~m ~shift_cycles
                    ~pattern_count:m.Module_def.patterns sleg kleg
                in
                t.costs.(idx) <- Some c;
                t.channels.(idx) <- channels_of_links t c.links;
                t.feasible_bits.(idx) <-
                  t.route_bits.(idx) && t.memory_bits.((row * n) + si)
            | _ ->
                (* A leg is unreachable under the custom router: the
                   pair has no path, hence no cost.  Explicit resets so
                   {!table_rebuild} rows forget their previous state. *)
                t.costs.(idx) <- None;
                t.channels.(idx) <- [||];
                t.feasible_bits.(idx) <- false
          end)
        endpoints)
    endpoints

let table ?(application = Processor.Bist) ?route system =
  Nocplan_obs.Trace.span "access.table"
    ~attrs:
      [
        ( "system",
          Nocplan_obs.Trace.String system.System.soc.Soc.name );
        ( "modules",
          Nocplan_obs.Trace.Int (Soc.module_count system.System.soc) );
      ]
  @@ fun () ->
  let endpoints =
    Array.of_list
      (Resource.all_endpoints system
         ~reuse:(List.length system.System.processors))
  in
  let n = Array.length endpoints in
  let endpoint_ids = Hashtbl.create (max 1 n) in
  Array.iteri (fun i e -> Hashtbl.replace endpoint_ids e i) endpoints;
  let module_ids = System.module_ids system in
  let module_rows = Hashtbl.create (List.length module_ids) in
  List.iteri (fun row id -> Hashtbl.replace module_rows id row) module_ids;
  let cells = List.length module_ids * n * n in
  let t =
    {
      table_system = system;
      table_application = application;
      table_route = route;
      endpoints;
      endpoint_ids;
      module_rows;
      width = n;
      feasible_bits = Array.make cells false;
      route_bits = Array.make cells false;
      memory_bits = Array.make (List.length module_ids * n) false;
      costs = Array.make (max 1 cells) None;
      channels = Array.make (max 1 cells) [||];
      channel_ids = Hashtbl.create 64;
    }
  in
  List.iteri (fun row module_id -> fill_row t row module_id) module_ids;
  t

let table_rebuild base ~system ~affected =
  Nocplan_obs.Trace.span "access.rebuild"
    ~attrs:
      [
        ("system", Nocplan_obs.Trace.String system.System.soc.Soc.name);
        ("affected", Nocplan_obs.Trace.Int (List.length affected));
      ]
  @@ fun () ->
  let old = base.table_system in
  List.iter
    (fun id ->
      if not (Hashtbl.mem base.module_rows id) then
        invalid_arg
          (Printf.sprintf "Test_access.table_rebuild: unknown module %d" id))
    affected;
  (* The contract: [system] differs from the base's system only in the
     placement of the [affected] modules.  Endpoints are pinned
     (processors and IO ports keep their tiles), so the endpoint set,
     its numbering and every unaffected module's row carry over; the
     checks below keep a buggy caller from silently trusting stale
     rows. *)
  Hashtbl.iter
    (fun id _row ->
      if
        (not (List.mem id affected))
        && not
             (Coord.equal
                (System.coord_of_module system id)
                (System.coord_of_module old id))
      then
        invalid_arg
          (Printf.sprintf
             "Test_access.table_rebuild: module %d moved but is not affected"
             id))
    base.module_rows;
  List.iter
    (fun (p : System.placed_processor) ->
      if
        not
          (Coord.equal p.System.coord
             (System.coord_of_module system p.System.module_id))
      then invalid_arg "Test_access.table_rebuild: a processor moved")
    system.System.processors;
  let t =
    {
      base with
      table_system = system;
      feasible_bits = Array.copy base.feasible_bits;
      route_bits = Array.copy base.route_bits;
      memory_bits = Array.copy base.memory_bits;
      costs = Array.copy base.costs;
      channels = Array.copy base.channels;
      (* Copy, then extend: links already numbered keep their ids, so
         reservations recorded under the base table's numbering remain
         meaningful; genuinely new links (routes touching the new
         tiles) are appended in first-use order. *)
      channel_ids = Hashtbl.copy base.channel_ids;
    }
  in
  List.iter
    (fun id -> fill_row t (Hashtbl.find t.module_rows id) id)
    (List.sort_uniq compare affected);
  t

let table_for t ~system ~application =
  t.table_system == system && t.table_application = application

let table_application t = t.table_application
let table_routed t = Option.is_some t.table_route

let endpoint_id t endpoint =
  match Hashtbl.find_opt t.endpoint_ids endpoint with
  | Some i -> i
  | None ->
      invalid_arg
        (Fmt.str "Test_access.endpoint_id: %a is not in the table" Resource.pp
           endpoint)

let module_row t module_id =
  match Hashtbl.find_opt t.module_rows module_id with
  | Some row -> row
  | None ->
      invalid_arg
        (Printf.sprintf "Test_access.module_row: unknown module %d" module_id)

let feasible_ix t ~row ~src ~snk =
  t.feasible_bits.((row * t.width * t.width) + (src * t.width) + snk)

let cost_ix t ~row ~src ~snk =
  match t.costs.((row * t.width * t.width) + (src * t.width) + snk) with
  | Some c -> c
  | None -> invalid_arg "Test_access.cost_ix: invalid source/sink pair"

let channels_ix t ~row ~src ~snk =
  t.channels.((row * t.width * t.width) + (src * t.width) + snk)

let table_feasible t ~module_id ~source ~sink =
  feasible_ix t ~row:(module_row t module_id) ~src:(endpoint_id t source)
    ~snk:(endpoint_id t sink)

let table_cost t ~module_id ~source ~sink =
  cost_ix t ~row:(module_row t module_id) ~src:(endpoint_id t source)
    ~snk:(endpoint_id t sink)

let table_route_feasible t ~module_id ~source ~sink =
  t.route_bits.(
    (module_row t module_id * t.width * t.width)
    + (endpoint_id t source * t.width)
    + endpoint_id t sink)

let table_memory_feasible t ~module_id ~source =
  t.memory_bits.((module_row t module_id * t.width) + endpoint_id t source)

let pp_cost ppf c =
  Fmt.pf ppf
    "@[<h>cost(duration %d, per-pattern %d, power %.1f, %d links, %d routers)@]"
    c.duration c.per_pattern c.power (List.length c.links) c.routers
