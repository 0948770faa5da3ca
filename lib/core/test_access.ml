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

let source_leg system ~application ~flits_in source ~hops:hops_in =
  let latency = system.System.latency in
  let flow = Latency.stream_cycle_per_flit latency in
  let routing = latency.Latency.routing_latency in
  let gen_overhead, src_setup, src_power =
    source_profile system ~application source
  in
  {
    gen_overhead;
    src_setup;
    src_power;
    fill_in = Latency.header_latency latency ~hops:hops_in;
    transport_in = ((hops_in + 2) * routing) + (flits_in * flow);
  }

let sink_leg system ~flits_out sink ~hops:hops_out =
  let latency = system.System.latency in
  let flow = Latency.stream_cycle_per_flit latency in
  let routing = latency.Latency.routing_latency in
  let sink_overhead, sink_setup, sink_power = sink_profile system sink in
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
   channel, the union of their links and the distinct routers.  The
   table stores the three scalars of a cell, so they are computed
   apart. *)

(* If the two paths share a channel, the stimulus and response streams
   serialize on it and their occupancies add up. *)
let per_pattern_of ~shift_cycles sleg kleg ~shared =
  let transport =
    if shared then sleg.transport_in + kleg.transport_out
    else max sleg.transport_in kleg.transport_out
  in
  max shift_cycles transport + sleg.gen_overhead + kleg.sink_overhead

let duration_of ~pattern_count sleg kleg ~per_pattern =
  sleg.src_setup + kleg.sink_setup + sleg.fill_in + kleg.fill_out
  + (pattern_count * per_pattern)
  + kleg.drain

let power_of system ~m sleg kleg ~routers =
  m.Module_def.test_power +. sleg.src_power +. kleg.sink_power
  +. Power.stream_power system.System.noc_power ~routers

let combine_legs system ~m ~shift_cycles ~pattern_count sleg kleg ~shared
    ~links ~routers =
  let per_pattern = per_pattern_of ~shift_cycles sleg kleg ~shared in
  {
    duration = duration_of ~pattern_count sleg kleg ~per_pattern;
    power = power_of system ~m sleg kleg ~routers;
    links;
    routers;
    per_pattern;
  }

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
       source
       ~hops:(List.length route_in - 1))
    (sink_leg system ~flits_out:(wrapper.Wrapper.scan_out_max + 1) sink
       ~hops:(List.length route_out - 1))
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

(* One leg's path in the form a cell merges, built once per (module,
   endpoint): its distinct links in [Link.compare] order with an int
   key per link that sorts the same way, their dense channel ids ([-1]
   until a cell first numbers them), its distinct routers as sorted
   tile ranks, and its hop count. *)
type path = {
  links : Link.t array;
  keys : int array;
  chans : int array;
  tiles : int array;
  hops : int;
}

(* The per-module invariants every cell of a row shares. *)
type shape = {
  def : Module_def.t;
  cut : Coord.t;
  flits_in : int;
  flits_out : int;
  shift_cycles : int;
}

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
  shapes : shape array;  (** per row *)
  in_legs : path option array;
      (** row-major [module][endpoint]: the path endpoint -> cut,
          [None] when the route function found none *)
  out_legs : path option array;
      (** row-major [module][endpoint]: the path cut -> endpoint *)
  feasible_bits : bool array;  (** row-major [module][source][sink] *)
  route_bits : bool array;  (** row-major [module][source][sink] *)
  memory_bits : bool array;  (** row-major [module][source] *)
  durations : int array;
      (** row-major [module][source][sink]: the pair's duration, [-1]
          when it has no cost (an invalid pair, or a leg the route
          function found no path for).  The three arrays below are
          meaningful only where it is nonnegative; a cell's links and
          channels are its two legs' *)
  powers : Float.Array.t;
  routers : int array;
  per_patterns : int array;
  channel_ids : (Link.t, int) Hashtbl.t;
      (** the dense numbering itself, link -> channel id in first-use
          order.  Kept so {!table_rebuild} and {!table_degrade} can
          extend the numbering of their base table: the rows they copy
          keep their ids, so the cells they refill must number the same
          links the same way. *)
}

(* A tile's rank in [Coord.compare] order, and a link's key in
   [Link.compare] order: the tag, then its tiles' ranks as digits. *)
let tile_rank topology (c : Coord.t) =
  (c.Coord.x * topology.Topology.height) + c.Coord.y

let link_key topology l =
  let n = Topology.router_count topology in
  match l with
  | Link.Inject c -> tile_rank topology c
  | Link.Channel (a, b) -> n + (tile_rank topology a * n) + tile_rank topology b
  | Link.Eject c -> n + (n * n) + tile_rank topology c

let path_of_route topology route =
  let links =
    Array.of_list (List.sort_uniq Link.compare (Xy.links_of_route route))
  in
  {
    links;
    keys = Array.map (link_key topology) links;
    chans = Array.make (Array.length links) (-1);
    tiles =
      Array.of_list
        (List.sort_uniq Int.compare (List.map (tile_rank topology) route));
    hops = List.length route - 1;
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

(* The numbering walk of one cell: a merge over its two legs' sorted
   link arrays that numbers each link as it meets it, so first use
   follows union order cell by cell, and returns the union's length.
   The paths share a channel iff the union is shorter than the two legs
   together.  A leg whose ids are all known is only read, never
   written. *)
let number_union t a b =
  let la = Array.length a.links and lb = Array.length b.links in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la || !j < lb do
    let c =
      if !i = la then 1
      else if !j = lb then -1
      else Int.compare a.keys.(!i) b.keys.(!j)
    in
    if c <= 0 then begin
      let ch = channel t a !i in
      if c = 0 then begin
        if b.chans.(!j) < 0 then b.chans.(!j) <- ch;
        incr j
      end;
      incr i
    end
    else begin
      ignore (channel t b !j : int);
      incr j
    end;
    incr k
  done;
  !k

(* Distinct values across two sorted int arrays: a cell's routers from
   its legs' tile ranks, its links from their keys. *)
let distinct (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    incr n
  done;
  !n + (la - !i) + (lb - !j)

let resolve t ~src ~dst =
  match t.table_route with
  | None -> Some (Xy.route t.table_system.System.topology ~src ~dst)
  | Some f -> f ~src ~dst

(* Refill the cells of one row that draw on a recomputed leg: cell
   (source [si], sink [ki]) iff [redo_in.(si) || redo_out.(ki)].  A full
   build passes all-true masks.  Reads the row's shape and legs, which
   the caller has stored. *)
let fill_cells t row ~redo_in ~redo_out =
  let system = t.table_system in
  let application = t.table_application in
  let endpoints = t.endpoints in
  let n = t.width in
  let s = t.shapes.(row) in
  let pattern_count = s.def.Module_def.patterns in
  let in_paths = Array.sub t.in_legs (row * n) n in
  let out_paths = Array.sub t.out_legs (row * n) n in
  let source_legs =
    Array.mapi
      (fun i e ->
        match in_paths.(i) with
        | Some p when Resource.can_source e ->
            Some
              ( source_leg system ~application ~flits_in:s.flits_in e
                  ~hops:p.hops,
                p )
        | _ -> None)
      endpoints
  in
  let sink_legs =
    Array.mapi
      (fun i e ->
        match out_paths.(i) with
        | Some p when Resource.can_sink e ->
            Some (sink_leg system ~flits_out:s.flits_out e ~hops:p.hops, p)
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
  let base = row * n * n in
  for si = 0 to n - 1 do
    let source = endpoints.(si) in
    for ki = 0 to n - 1 do
      if redo_in.(si) || redo_out.(ki) then begin
        let sink = endpoints.(ki) in
        let idx = base + (si * n) + ki in
        let route_ok = in_route_ok.(si) && out_route_ok.(ki) in
        t.route_bits.(idx) <- route_ok;
        if Resource.valid_pair ~source ~sink then begin
          match (source_legs.(si), sink_legs.(ki)) with
          | Some (sleg, pin), Some (kleg, pout) ->
              let shared =
                number_union t pin pout
                < Array.length pin.links + Array.length pout.links
              in
              let routers = distinct pin.tiles pout.tiles in
              let per_pattern =
                per_pattern_of ~shift_cycles:s.shift_cycles sleg kleg ~shared
              in
              t.durations.(idx) <-
                duration_of ~pattern_count sleg kleg ~per_pattern;
              Float.Array.set t.powers idx
                (power_of system ~m:s.def sleg kleg ~routers);
              t.routers.(idx) <- routers;
              t.per_patterns.(idx) <- per_pattern;
              t.feasible_bits.(idx) <-
                route_ok && t.memory_bits.((row * n) + si)
          | _ ->
              (* A leg is unreachable under the custom router: the
                 pair has no path, hence no cost.  Explicit resets so
                 refilled rows forget their previous state. *)
              t.durations.(idx) <- -1;
              t.feasible_bits.(idx) <- false
        end
      end
    done
  done

(* A row's shape and the memory footprint of its module's test set
   under the table's application: the expensive per-module invariants,
   computed once per row. *)
let shape_of system ~application module_id =
  let m = Soc.find system.System.soc module_id in
  let wrapper = Wrapper.design ~width:system.System.flit_width m in
  let footprint =
    match application with
    | Processor.Bist -> 0
    | Processor.Decompression -> decompression_footprint_of_wrapper m wrapper
  in
  ( {
      def = m;
      cut = System.coord_of_module system module_id;
      flits_in = wrapper.Wrapper.scan_in_max + 1;
      flits_out = wrapper.Wrapper.scan_out_max + 1;
      shift_cycles = Wrapper.pattern_cycles wrapper;
    },
    footprint )

(* Fill one module's row of the table — its shape, its legs, the
   per-source memory bits and every (source, sink) cell.  Shared by
   {!table} (every row, in order) and {!table_rebuild} (affected rows
   only). *)
let fill_row t row (s, footprint) =
  let system = t.table_system in
  let n = t.width in
  t.shapes.(row) <- s;
  (* Per-endpoint path legs, computed once per (module, endpoint)
     instead of once per (module, source, sink) triple. *)
  let topology = system.System.topology in
  Array.iteri
    (fun i e ->
      let at = Resource.coord system e in
      t.in_legs.((row * n) + i) <-
        Option.map (path_of_route topology) (resolve t ~src:at ~dst:s.cut);
      t.out_legs.((row * n) + i) <-
        Option.map (path_of_route topology) (resolve t ~src:s.cut ~dst:at);
      t.memory_bits.((row * n) + i) <-
        memory_feasible_of_footprint system
          ~application:t.table_application ~footprint ~source:e)
    t.endpoints;
  let all = Array.make n true in
  fill_cells t row ~redo_in:all ~redo_out:all

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
  let rows = List.length module_ids in
  let module_rows = Hashtbl.create rows in
  List.iteri (fun row id -> Hashtbl.replace module_rows id row) module_ids;
  let cells = rows * n * n in
  let shaped = List.map (shape_of system ~application) module_ids in
  let t =
    {
      table_system = system;
      table_application = application;
      table_route = route;
      endpoints;
      endpoint_ids;
      module_rows;
      width = n;
      shapes = Array.of_list (List.map fst shaped);
      in_legs = Array.make (rows * n) None;
      out_legs = Array.make (rows * n) None;
      feasible_bits = Array.make cells false;
      route_bits = Array.make cells false;
      memory_bits = Array.make (rows * n) false;
      durations = Array.make cells (-1);
      powers = Float.Array.make cells 0.0;
      routers = Array.make cells 0;
      per_patterns = Array.make cells 0;
      channel_ids = Hashtbl.create 64;
    }
  in
  List.iteri (fun row shape -> fill_row t row shape) shaped;
  t

(* A copy of [base] for [system] whose arrays {!fill_row} and
   {!fill_cells} may overwrite, and whose channel numbering extends the
   base's: links already numbered keep their ids, as they do in the
   copied cells; links first routed over by a refilled cell are
   appended in first-use order. *)
let copy_for base ~system ~route =
  {
    base with
    table_system = system;
    table_route = route;
    shapes = Array.copy base.shapes;
    in_legs = Array.copy base.in_legs;
    out_legs = Array.copy base.out_legs;
    feasible_bits = Array.copy base.feasible_bits;
    route_bits = Array.copy base.route_bits;
    memory_bits = Array.copy base.memory_bits;
    durations = Array.copy base.durations;
    powers = Float.Array.copy base.powers;
    routers = Array.copy base.routers;
    per_patterns = Array.copy base.per_patterns;
    channel_ids = Hashtbl.copy base.channel_ids;
  }

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
  let t = copy_for base ~system ~route:base.table_route in
  List.iter
    (fun id ->
      fill_row t
        (Hashtbl.find t.module_rows id)
        (shape_of system ~application:t.table_application id))
    (List.sort_uniq compare affected);
  t

module Int_tbl = Hashtbl.Make (Int)

let table_degrade base ~route ~system =
  let old = base.table_system in
  if
    not
      (old.System.soc == system.System.soc
      && old.System.placement == system.System.placement
      && old.System.processors == system.System.processors
      && old.System.io_inputs == system.System.io_inputs
      && old.System.io_outputs == system.System.io_outputs
      && Topology.equal old.System.topology system.System.topology
      && old.System.latency = system.System.latency
      && old.System.noc_power = system.System.noc_power
      && old.System.flit_width = system.System.flit_width)
  then
    invalid_arg
      "Test_access.table_degrade: system differs from the base's in more \
       than its failed links";
  if not (Link.Set.subset old.System.failed_links system.System.failed_links)
  then
    invalid_arg
      "Test_access.table_degrade: a failed link of the base's system is \
       healthy again";
  let go () =
    let topology = system.System.topology in
    let blocked = Int_tbl.create 64 in
    Link.Set.iter
      (fun l -> Int_tbl.replace blocked (link_key topology l) ())
      system.System.failed_links;
    let t = copy_for base ~system ~route:(Some route) in
    let n = t.width in
    let redo_in = Array.make n false and redo_out = Array.make n false in
    let legs = ref 0 and cells = ref 0 in
    (* A leg is routed again iff its path crosses a failed link; an
       unreachable leg stays unreachable.  The refilled cells share
       their kept legs' paths with [base] but never write them: a kept
       leg's partner in a refilled cell was a leg of [base] too, and
       the base's merge of that pair numbered every link of both. *)
    let is_blocked key = Int_tbl.mem blocked key in
    let cut = function
      | Some p -> Array.exists is_blocked p.keys
      | None -> false
    in
    let reroute ~src ~dst =
      incr legs;
      Option.map (path_of_route topology) (route ~src ~dst)
    in
    Array.iteri
      (fun row (s : shape) ->
        let kept_in = ref n and kept_out = ref n in
        for i = 0 to n - 1 do
          let k = (row * n) + i in
          redo_in.(i) <- cut t.in_legs.(k);
          redo_out.(i) <- cut t.out_legs.(k);
          if redo_in.(i) || redo_out.(i) then begin
            let at = Resource.coord system t.endpoints.(i) in
            if redo_in.(i) then begin
              t.in_legs.(k) <- reroute ~src:at ~dst:s.cut;
              decr kept_in
            end;
            if redo_out.(i) then begin
              t.out_legs.(k) <- reroute ~src:s.cut ~dst:at;
              decr kept_out
            end
          end
        done;
        if !kept_in < n || !kept_out < n then begin
          cells := !cells + (n * n) - (!kept_in * !kept_out);
          fill_cells t row ~redo_in ~redo_out
        end)
      t.shapes;
    (t, !legs, !cells)
  in
  let module Trace = Nocplan_obs.Trace in
  if not (Trace.enabled ()) then
    let t, _, _ = go () in
    t
  else begin
    Trace.begin_span "access.degrade"
      ~attrs:
        [
          ("system", Trace.String system.System.soc.Soc.name);
          ( "failed_links",
            Trace.Int (Link.Set.cardinal system.System.failed_links) );
        ];
    match go () with
    | t, legs, cells ->
        Trace.end_span "access.degrade"
          ~attrs:[ ("legs", Trace.Int legs); ("cells", Trace.Int cells) ];
        t
    | exception exn ->
        Trace.end_span "access.degrade" ~attrs:[ ("raised", Trace.Bool true) ];
        raise exn
  end

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

let row_count t = Array.length t.shapes
let cell_count t = Array.length t.durations
let channel_count t = Hashtbl.length t.channel_ids
let cell t ~row ~src ~snk = (row * t.width * t.width) + (src * t.width) + snk
let feasible_ix t ~row ~src ~snk = t.feasible_bits.(cell t ~row ~src ~snk)
let duration_ix t ~row ~src ~snk = t.durations.(cell t ~row ~src ~snk)
let power_ix t ~row ~src ~snk = Float.Array.get t.powers (cell t ~row ~src ~snk)
let per_pattern_ix t ~row ~src ~snk = t.per_patterns.(cell t ~row ~src ~snk)

(* A row's leg at an endpoint; a leg with no path stands in as the
   empty one. *)
let no_path = { links = [||]; keys = [||]; chans = [||]; tiles = [||]; hops = 0 }

let leg t legs ~row i =
  match legs.((row * t.width) + i) with Some p -> p | None -> no_path

let source_channels_ix t ~row ~src = (leg t t.in_legs ~row src).chans
let sink_channels_ix t ~row ~snk = (leg t t.out_legs ~row snk).chans

(* Refuse a cell with no cost: its legs make no path. *)
let check_cost t ~row ~src ~snk =
  if duration_ix t ~row ~src ~snk < 0 then
    invalid_arg "Test_access: the source/sink pair has no cost"

(* [f acc link channel] over a cell's path in union order: the two
   legs' sorted arrays merged, a link both legs cross visited once. *)
let fold_path_ix t ~row ~src ~snk f init =
  check_cost t ~row ~src ~snk;
  let a = leg t t.in_legs ~row src and b = leg t t.out_legs ~row snk in
  let la = Array.length a.links and lb = Array.length b.links in
  let acc = ref init and i = ref 0 and j = ref 0 in
  while !i < la || !j < lb do
    let c =
      if !i = la then 1
      else if !j = lb then -1
      else Int.compare a.keys.(!i) b.keys.(!j)
    in
    if c <= 0 then begin
      acc := f !acc a.links.(!i) a.chans.(!i);
      if c = 0 then incr j;
      incr i
    end
    else begin
      acc := f !acc b.links.(!j) b.chans.(!j);
      incr j
    end
  done;
  !acc

let link_count_ix t ~row ~src ~snk =
  check_cost t ~row ~src ~snk;
  distinct (leg t t.in_legs ~row src).keys (leg t t.out_legs ~row snk).keys

let links_match_ix t ~row ~src ~snk links =
  match
    fold_path_ix t ~row ~src ~snk
      (fun rest l _ ->
        match rest with
        | x :: rest when x == l || Link.equal x l -> rest
        | _ -> raise_notrace Exit)
      links
  with
  | [] -> true
  | _ :: _ | (exception Exit) -> false

(* The union walked from the top down, so the list is consed in
   order and the channel array filled from its end. *)
let path_ix t ~row ~src ~snk =
  check_cost t ~row ~src ~snk;
  let a = leg t t.in_legs ~row src and b = leg t t.out_legs ~row snk in
  let u = distinct a.keys b.keys in
  let chans = Array.make u 0 and links = ref [] in
  let i = ref (Array.length a.links - 1) and j = ref (Array.length b.links - 1) in
  for k = u - 1 downto 0 do
    let c =
      if !i < 0 then -1
      else if !j < 0 then 1
      else Int.compare a.keys.(!i) b.keys.(!j)
    in
    if c >= 0 then begin
      links := a.links.(!i) :: !links;
      chans.(k) <- a.chans.(!i);
      if c = 0 then decr j;
      decr i
    end
    else begin
      links := b.links.(!j) :: !links;
      chans.(k) <- b.chans.(!j);
      decr j
    end
  done;
  (!links, chans)

let cost_ix t ~row ~src ~snk =
  let links, _ = path_ix t ~row ~src ~snk in
  let idx = cell t ~row ~src ~snk in
  {
    duration = t.durations.(idx);
    power = Float.Array.get t.powers idx;
    links;
    routers = t.routers.(idx);
    per_pattern = t.per_patterns.(idx);
  }

let channels_ix t ~row ~src ~snk =
  if duration_ix t ~row ~src ~snk < 0 then [||]
  else snd (path_ix t ~row ~src ~snk)

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
