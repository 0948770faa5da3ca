module Itc02 = Nocplan_itc02
module Noc = Nocplan_noc
module Proc = Nocplan_proc
module Core = Nocplan_core
module Rng = Itc02.Data_gen.Rng

type item = {
  index : int;
  seed : int64;
  name : string;
  soc : Itc02.Soc.t;
  system : Core.System.t;
  torus : bool;
  width : int;
  height : int;
  leons : int;
  plasmas : int;
  flit_width : int;
  io_pairs : int;
  power_pct : float option;
  power_limit : float option;
  reuse : int;
  access : Core.Test_access.table Lazy.t;
}

(* Per-item seed: the corpus seed advanced by a golden-ratio stride, so
   items are independent splitmix64 streams and [item] is O(1) in the
   corpus size. *)
let item_seed ~seed ~index =
  Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1)))

(* Floor for a drawn power budget: any single test must fit alone.
   An entry's power is its module's test power plus the source and
   sink processor-leg powers plus router streaming on both XY paths;
   bounding the legs by the worst characterization and the streams by
   two full-diameter paths guarantees the greedy engine can always
   make progress, hence the instance is schedulable. *)
let progress_floor (system : Core.System.t) =
  let max_module_power =
    List.fold_left
      (fun acc (m : Itc02.Module_def.t) ->
        Float.max acc m.Itc02.Module_def.test_power)
      0.0 system.Core.System.soc.Itc02.Soc.modules
  in
  let leg_power =
    List.fold_left
      (fun acc (pp : Core.System.placed_processor) ->
        let p = pp.Core.System.processor in
        Float.max acc
          (p.Proc.Processor.bist.Proc.Characterization.power
          +. p.Proc.Processor.sink.Proc.Characterization.power))
      0.0 system.Core.System.processors
  in
  let topo = system.Core.System.topology in
  let stream =
    2.0
    *. system.Core.System.noc_power.Noc.Power.router_stream_power
    *. float_of_int (topo.Noc.Topology.width + topo.Noc.Topology.height)
  in
  1.05 *. (max_module_power +. leg_power +. stream)

let bist_table system =
  lazy (Core.Test_access.table ~application:Proc.Processor.Bist system)

let item ~seed ~index =
  if index < 0 then invalid_arg "Corpus.item: negative index";
  let rng = Rng.create (item_seed ~seed ~index) in
  let scan_modules = Rng.int_range rng ~lo:2 ~hi:7 in
  let comb_modules = Rng.int_range rng ~lo:0 ~hi:2 in
  let target_scan_cells = Rng.log_uniform_int rng ~lo:600 ~hi:8_000 in
  let max_chains = Rng.int_range rng ~lo:4 ~hi:16 in
  let max_patterns = Rng.log_uniform_int rng ~lo:16 ~hi:80 in
  let power_profile =
    match Rng.int rng ~bound:3 with
    | 0 -> Itc02.Data_gen.Toggle
    | 1 -> Itc02.Data_gen.Scaled { lo = 0.5; hi = 2.0 }
    | _ -> Itc02.Data_gen.Hotspot { count = 2; factor = 3.0 }
  in
  let torus = Rng.bool rng 0.5 in
  let leons = Rng.int_range rng ~lo:1 ~hi:2 in
  let plasmas = Rng.int_range rng ~lo:0 ~hi:1 in
  let flit_width = [| 16; 32; 64 |].(Rng.int rng ~bound:3) in
  let io_pairs = Rng.int_range rng ~lo:1 ~hi:2 in
  let power_pct =
    match Rng.int rng ~bound:3 with
    | 0 -> None
    | 1 -> Some 70.0
    | _ -> Some 100.0
  in
  (* Near-square grid sized to the core count, with a drawn slack of
     0..1 in each dimension; clamped to the 2..5 range the historical
     QCheck distribution covers. *)
  let tiles = scan_modules + comb_modules + leons + plasmas in
  let side =
    int_of_float (Float.round (Float.sqrt (float_of_int tiles)))
  in
  let clamp_dim d = max 2 (min 5 d) in
  let width = clamp_dim (side + Rng.int rng ~bound:2) in
  let height = clamp_dim (side + Rng.int rng ~bound:2) in
  let name = Printf.sprintf "syn%d" index in
  let profile =
    {
      Itc02.Data_gen.name;
      seed = item_seed ~seed ~index;
      scan_modules;
      comb_modules;
      target_scan_cells;
      max_chains;
      min_patterns = 4;
      max_patterns;
    }
  in
  let soc = Itc02.Data_gen.generate ~power:power_profile profile in
  let topology =
    if torus then Noc.Topology.torus ~width ~height
    else Noc.Topology.make ~width ~height
  in
  let processors =
    List.init leons (fun _ -> Proc.Processor.leon ~id:1)
    @ List.init plasmas (fun _ -> Proc.Processor.plasma ~id:1)
  in
  let corner x y = Noc.Coord.make ~x ~y in
  let io_inputs =
    corner 0 0 :: (if io_pairs > 1 then [ corner (width - 1) 0 ] else [])
  in
  let io_outputs =
    corner (width - 1) (height - 1)
    :: (if io_pairs > 1 then [ corner 0 (height - 1) ] else [])
  in
  let system =
    Core.System.build ~flit_width ~soc ~topology ~processors ~io_inputs
      ~io_outputs ()
  in
  let power_limit =
    Option.map
      (fun pct ->
        Float.max
          (Core.System.power_limit_of_pct system ~pct)
          (progress_floor system))
      power_pct
  in
  {
    index;
    seed;
    name;
    soc;
    system;
    torus;
    width;
    height;
    leons;
    plasmas;
    flit_width;
    io_pairs;
    power_pct;
    power_limit;
    reuse = leons + plasmas;
    access = bist_table system;
  }

let generate ~seed ~count =
  if count < 0 then invalid_arg "Corpus.generate: negative count";
  List.init count (fun index -> item ~seed ~index)

let access item = Lazy.force item.access
let fresh_table item = { item with access = bist_table item.system }

let config item =
  Core.Scheduler.config ~power_limit:item.power_limit ~reuse:item.reuse ()

let fingerprint item = Core.System.fingerprint item.system

let digest items =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map fingerprint items)))

let topology_kind item = if item.torus then "torus" else "mesh"

let csv_header =
  "name,index,modules,topology,width,height,leons,plasmas,flit,io_pairs,power_pct,fingerprint"

let csv_row item =
  Printf.sprintf "%s,%d,%d,%s,%d,%d,%d,%d,%d,%d,%s,%s" item.name item.index
    (Itc02.Soc.module_count item.soc)
    (topology_kind item) item.width item.height item.leons item.plasmas
    item.flit_width item.io_pairs
    (match item.power_pct with
    | None -> ""
    | Some pct -> Printf.sprintf "%g" pct)
    (fingerprint item)

let pp_header ppf () =
  Fmt.pf ppf "%-8s %-7s %-10s %-6s %-6s %-5s %-6s %s" "name" "modules"
    "topology" "procs" "flit" "io" "power" "fingerprint"

let pp_row ppf item =
  Fmt.pf ppf "%-8s %-7d %-10s %-6s %-6d %-5d %-6s %s" item.name
    (Itc02.Soc.module_count item.soc)
    (Printf.sprintf "%s %dx%d" (topology_kind item) item.width item.height)
    (Printf.sprintf "%dL+%dP" item.leons item.plasmas)
    item.flit_width item.io_pairs
    (match item.power_pct with
    | None -> "-"
    | Some pct -> Printf.sprintf "%g%%" pct)
    (fingerprint item)
