module Module_def = Nocplan_itc02.Module_def
module Wrapper = Nocplan_itc02.Wrapper
module Soc = Nocplan_itc02.Soc
module Xy = Nocplan_noc.Xy_routing
module Link = Nocplan_noc.Link
module Latency = Nocplan_noc.Latency
module Power = Nocplan_noc.Power
module Coord = Nocplan_noc.Coord
module Topology = Nocplan_noc.Topology
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

(* The two halves of a test path, evaluated independently so the table
   can compute them once per (module, endpoint) instead of once per
   (module, source, sink) triple.  Transport: one flit per shift cycle
   per direction, plus a header flit per pattern packet.  The cadence
   term follows the sustainable wormhole model verified against the
   flit-level simulator by Schedule_sim: under back-to-back packets the
   successor's header trails the predecessor's tail by the routing
   setup at every one of the [hops + 2] port/channel crossings, on top
   of the flits' flow-control slots.  Both legs price an explicit
   router path (adjacent tiles, inclusive): the XY path in the classic
   case, a detour path when the table carries a custom route function,
   so a longer detour pays honestly (more fill, more routing setup,
   more routers). *)
type source_leg = {
  gen_overhead : int;
  src_setup : int;
  src_power : float;
  fill_in : int;
  transport_in : int;
}

type sink_leg = {
  sink_overhead : int;
  sink_setup : int;
  sink_power : float;
  fill_out : int;
  transport_out : int;
  drain : int;
}

let source_leg system ~application ~flits_in source route_in =
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
    fill_in = Latency.header_latency latency ~hops:hops_in;
    transport_in = ((hops_in + 2) * routing) + (flits_in * flow);
  }

let sink_leg system ~flits_out sink route_out =
  let latency = system.System.latency in
  let flow = Latency.stream_cycle_per_flit latency in
  let routing = latency.Latency.routing_latency in
  let sink_overhead, sink_setup, sink_power = sink_profile system sink in
  let hops_out = List.length route_out - 1 in
  {
    sink_overhead;
    sink_setup;
    sink_power;
    fill_out = Latency.header_latency latency ~hops:hops_out;
    transport_out = ((hops_out + 2) * routing) + (flits_out * flow);
    (* After the last pattern slot the final response still drains
       through the sink path. *)
    drain = flits_out * flow;
  }

(* The cost of one (source, sink) pair from its two legs and the three
   facts about their paths taken together: whether they share a
   channel, the union of their links and the distinct routers. *)
let combine_legs system ~m ~shift_cycles ~pattern_count sleg kleg ~shared
    ~links ~routers =
  (* If the two paths share a channel, the stimulus and response
     streams serialize on it and their occupancies add up. *)
  let transport =
    if shared then sleg.transport_in + kleg.transport_out
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
  let power =
    m.Module_def.test_power +. sleg.src_power +. kleg.sink_power
    +. Power.stream_power system.System.noc_power ~routers
  in
  { duration; power; links; routers; per_pattern }

(* The single-pair reference: sets and lists straight from the two XY
   routes, independent of the table's merge walk. *)
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
  let cut = System.coord_of_module system module_id in
  let topology = system.System.topology in
  let route_in = Xy.route topology ~src:(Resource.coord system source) ~dst:cut in
  let route_out = Xy.route topology ~src:cut ~dst:(Resource.coord system sink) in
  let links_in = Link.Set.of_list (Xy.links_of_route route_in) in
  let links_out = Link.Set.of_list (Xy.links_of_route route_out) in
  combine_legs system ~m ~shift_cycles:(Wrapper.pattern_cycles wrapper)
    ~pattern_count
    (source_leg system ~application
       ~flits_in:(wrapper.Wrapper.scan_in_max + 1)
       source route_in)
    (sink_leg system ~flits_out:(wrapper.Wrapper.scan_out_max + 1) sink
       route_out)
    ~shared:(not (Link.Set.disjoint links_in links_out))
    ~links:(Link.Set.elements (Link.Set.union links_in links_out))
    ~routers:
      (List.length (List.sort_uniq Coord.compare (route_in @ route_out)))

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
          its base table: the rows it copies keep their ids, so the
          rows it refills must number the same links the same way. *)
}

(* One leg's path in the form a cell merges, built once per (module,
   endpoint): its distinct links in [Link.compare] order with an int
   key per link that sorts the same way, their dense channel ids ([-1]
   until a cell first numbers them), and its distinct routers as sorted
   tile ranks. *)
type path = {
  links : Link.t array;
  keys : int array;
  chans : int array;
  tiles : int array;
}

let path_of_route topology route =
  (* A tile's rank in [Coord.compare] order, and a link's key in
     [Link.compare] order: the tag, then its tiles' ranks as digits. *)
  let height = topology.Topology.height in
  let n = topology.Topology.width * height in
  let rank (c : Coord.t) = (c.Coord.x * height) + c.Coord.y in
  let key = function
    | Link.Inject c -> rank c
    | Link.Channel (a, b) -> n + (rank a * n) + rank b
    | Link.Eject c -> n + (n * n) + rank c
  in
  let links =
    Array.of_list (List.sort_uniq Link.compare (Xy.links_of_route route))
  in
  {
    links;
    keys = Array.map key links;
    chans = Array.make (Array.length links) (-1);
    tiles = Array.of_list (List.sort_uniq Int.compare (List.map rank route));
  }

(* Dense per-table channel numbering: every distinct link routed over
   by any (module, source, sink) pair gets one id, in first-use order —
   the reservation calendar indexes by it.  [channel t p i] is the id of
   [p.links.(i)], numbering the link if no cell has used it yet. *)
let channel t p i =
  let c = p.chans.(i) in
  if c >= 0 then c
  else begin
    let l = p.links.(i) in
    let c =
      match Hashtbl.find_opt t.channel_ids l with
      | Some c -> c
      | None ->
          let c = Hashtbl.length t.channel_ids in
          Hashtbl.add t.channel_ids l c;
          c
    in
    p.chans.(i) <- c;
    c
  end

(* One merge walk over a cell's two sorted link arrays: writes the union
   in order, with its channel ids, into [links]/[chans] and returns its
   length.  Links are numbered as the walk meets them, so first use
   follows union order cell by cell.  The paths share a channel iff the
   union is shorter than the two legs together. *)
let merge_links t a b ~links ~chans =
  let la = Array.length a.links and lb = Array.length b.links in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la || !j < lb do
    let c =
      if !i = la then 1
      else if !j = lb then -1
      else Int.compare a.keys.(!i) b.keys.(!j)
    in
    if c <= 0 then begin
      links.(!k) <- a.links.(!i);
      chans.(!k) <- channel t a !i;
      if c = 0 then begin
        b.chans.(!j) <- chans.(!k);
        incr j
      end;
      incr i
    end
    else begin
      links.(!k) <- b.links.(!j);
      chans.(!k) <- channel t b !j;
      incr j
    end;
    incr k
  done;
  !k

(* Distinct routers across two sorted tile-rank arrays. *)
let distinct_tiles a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    incr n
  done;
  !n + (la - !i) + (lb - !j)

(* Fill one module's row of the table — every (source, sink) cell plus
   the per-source memory bits.  Shared by {!table} (every row, in order)
   and {!table_rebuild} (affected rows only). *)
let fill_row t row module_id =
  let system = t.table_system in
  let application = t.table_application in
  let endpoints = t.endpoints in
  let n = t.width in
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
  let pattern_count = m.Module_def.patterns in
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
  let in_paths = Array.map (Option.map (path_of_route topology)) in_routes in
  let out_paths = Array.map (Option.map (path_of_route topology)) out_routes in
  let source_legs =
    Array.mapi
      (fun i e ->
        match (in_routes.(i), in_paths.(i)) with
        | Some r, Some p when Resource.can_source e ->
            Some (source_leg system ~application ~flits_in e r, p)
        | _ -> None)
      endpoints
  in
  let sink_legs =
    Array.mapi
      (fun i e ->
        match (out_routes.(i), out_paths.(i)) with
        | Some r, Some p when Resource.can_sink e ->
            Some (sink_leg system ~flits_out e r, p)
        | _ -> None)
      endpoints
  in
  (* Route survivability of each path leg, for any endpoint — the
     validator probes arbitrary (source, sink) combinations, so
     these cover even endpoints that cannot legally play the role.
     Under a custom router a leg survives iff the router produced a
     path (which must itself avoid the faulty channels). *)
  let failed = system.System.failed_links in
  let leg_ok =
    Option.fold ~none:false ~some:(fun p ->
        Array.for_all (fun l -> not (Link.Set.mem l failed)) p.links)
  in
  let in_route_ok = Array.map leg_ok in_paths in
  let out_route_ok = Array.map leg_ok out_paths in
  (* Scratch for one cell's merged links, sized for the longest pair. *)
  let longest paths =
    Array.fold_left
      (fun acc ->
        Option.fold ~none:acc ~some:(fun p -> max acc (Array.length p.links)))
      0 paths
  in
  let room = longest in_paths + longest out_paths in
  let links = Array.make room (Link.Inject cut) in
  let chans = Array.make room 0 in
  let base = row * n * n in
  for si = 0 to n - 1 do
    let source = endpoints.(si) in
    let memory_ok =
      memory_feasible_of_footprint system ~application ~footprint ~source
    in
    t.memory_bits.((row * n) + si) <- memory_ok;
    for ki = 0 to n - 1 do
      let sink = endpoints.(ki) in
      let idx = base + (si * n) + ki in
      let route_ok = in_route_ok.(si) && out_route_ok.(ki) in
      t.route_bits.(idx) <- route_ok;
      if Resource.valid_pair ~source ~sink then begin
        match (source_legs.(si), sink_legs.(ki)) with
        | Some (sleg, pin), Some (kleg, pout) ->
            let u = merge_links t pin pout ~links ~chans in
            let union = ref [] in
            for k = u - 1 downto 0 do
              union := links.(k) :: !union
            done;
            t.costs.(idx) <-
              Some
                (combine_legs system ~m ~shift_cycles ~pattern_count sleg
                   kleg
                   ~shared:(u < Array.length pin.links + Array.length pout.links)
                   ~links:!union
                   ~routers:(distinct_tiles pin.tiles pout.tiles));
            t.channels.(idx) <- Array.sub chans 0 u;
            t.feasible_bits.(idx) <- route_ok && memory_ok
        | _ ->
            (* A leg is unreachable under the custom router: the
               pair has no path, hence no cost.  Explicit resets so
               {!table_rebuild} rows forget their previous state. *)
            t.costs.(idx) <- None;
            t.channels.(idx) <- [||];
            t.feasible_bits.(idx) <- false
      end
    done
  done

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
      (* Copy, then extend: links already numbered keep their ids, as
         they do in the copied rows; genuinely new links (routes
         touching the new tiles) are appended in first-use order. *)
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
