module Itc02 = Nocplan_itc02
module Noc = Nocplan_noc
module Proc = Nocplan_proc
module Core = Nocplan_core

type spec = {
  system : string;
  soc_text : string option;
  width : int option;
  height : int option;
  leons : int;
  plasmas : int;
}

let spec ?soc_text ?width ?height ?(leons = 0) ?(plasmas = 0) system =
  { system; soc_text; width; height; leons; plasmas }

(* Builtin systems are immutable once built (the serve path already
   hands one shared instance per fingerprint to every request through
   [Table_cache]), so build each at most once per process: repeated
   construction cost more than a hot-table solve.  The mutex guards
   first-build races between worker domains. *)
let builtin_mutex = Mutex.create ()
let builtin_built : (string, Core.System.t) Hashtbl.t = Hashtbl.create 8

let builtin_system name =
  match List.assoc_opt name Core.Experiments.builders with
  | None -> None
  | Some build ->
      Mutex.lock builtin_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock builtin_mutex)
        (fun () ->
          match Hashtbl.find_opt builtin_built name with
          | Some system -> Some system
          | None ->
              let system = build () in
              Hashtbl.add builtin_built name system;
              Some system)

let assemble ~soc ~width ~height ~leons ~plasmas =
  if leons < 0 || plasmas < 0 then
    invalid_arg "Sysbuild.assemble: negative processor count";
  let processors =
    List.init leons (fun _ -> Proc.Processor.leon ~id:1)
    @ List.init plasmas (fun _ -> Proc.Processor.plasma ~id:1)
  in
  let modules = Itc02.Soc.module_count soc + leons + plasmas in
  let width, height =
    match (width, height) with
    | Some w, Some h -> (w, h)
    | _ ->
        (* Smallest near-square mesh covering one module per tile when
           possible. *)
        let side = int_of_float (ceil (sqrt (float_of_int modules))) in
        (side, side)
  in
  let topology = Noc.Topology.make ~width ~height in
  let input = Noc.Coord.make ~x:0 ~y:0 in
  let output = Noc.Coord.make ~x:(width - 1) ~y:(height - 1) in
  Core.System.build ~soc ~topology ~processors ~io_inputs:[ input ]
    ~io_outputs:[ output ] ()

(* About 75 MB of table at the ~9 live words a cell holds (measured on
   d695 with 60 Leons, 269k cells). *)
let max_table_cells = 1_000_000

type error = Unresolved of string | Too_large of string

let error_message = function Unresolved msg | Too_large msg -> msg

(* The access table of an assembled system has one row per module
   (processors included) and one column per endpoint pair: the two IO
   ports and every processor.  Negative counts are left to [assemble]'s
   own error.  A single count above the cap already implies more cells
   than the cap, so it is refused before the sum; below it the sum
   cannot overflow, and the integer divisions keep the product from
   doing so. *)
let check_size s ~soc =
  if s.leons < 0 || s.plasmas < 0 then Ok ()
  else
    let too_large =
      s.leons > max_table_cells || s.plasmas > max_table_cells
      ||
      let procs = s.leons + s.plasmas in
      let rows = Itc02.Soc.module_count soc + procs
      and endpoints = 2 + procs in
      endpoints > max_table_cells / endpoints
      || rows > max_table_cells / (endpoints * endpoints)
    in
    if not too_large then Ok ()
    else
      let field =
        match (s.leons, s.plasmas) with
        | _, 0 when s.leons > 0 -> {|field "leons"|}
        | 0, _ when s.plasmas > 0 -> {|field "plasmas"|}
        | 0, 0 -> {|field "soc"|}
        | _ -> {|fields "leons" and "plasmas"|}
      in
      Error
        (Too_large
           (Printf.sprintf
              "%s: %d Leons and %d Plasmas need more than %d access-table \
               cells ((modules + processors) x (2 + processors)^2)"
              field s.leons s.plasmas max_table_cells))

let resolve s =
  let assemble_soc soc =
    match check_size s ~soc with
    | Error _ as e -> e
    | Ok () -> (
        match
          assemble ~soc ~width:s.width ~height:s.height ~leons:s.leons
            ~plasmas:s.plasmas
        with
        | system -> Ok system
        | exception Invalid_argument msg -> Error (Unresolved msg))
  in
  match s.soc_text with
  | Some text -> (
      match Itc02.Parser.parse text with
      | Ok soc -> assemble_soc soc
      | Error e ->
          Error
            (Unresolved
               (Fmt.str "inline description: %a" Itc02.Parser.pp_error e)))
  | None -> (
      match builtin_system s.system with
      | Some system -> Ok system
      | None -> (
          match Itc02.Benchmarks.find s.system with
          | Some soc -> assemble_soc soc
          | None ->
              Error
                (Unresolved
                   (Fmt.str
                      "%s is neither a builtin system (%s) nor a corpus \
                       benchmark (%s)"
                      s.system
                      (String.concat ", "
                         (List.map fst Core.Experiments.builders))
                      (String.concat ", " Itc02.Benchmarks.names)))))

let build s = Result.map_error error_message (resolve s)
