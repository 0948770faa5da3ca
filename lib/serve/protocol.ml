module Core = Nocplan_core
module Proc = Nocplan_proc
module Noc = Nocplan_noc

let version = 1
let max_mesh_tiles = 4096

let fields =
  [
    "v"; "id"; "op"; "system"; "soc"; "width"; "height"; "leons"; "plasmas";
    "policy"; "application"; "backend"; "power_pct"; "reuse"; "max_reuse";
    "iterations"; "seed"; "chains"; "placement_moves"; "warm"; "max_sessions";
    "at"; "failed_routers"; "failed_links"; "deadline_ms";
  ]

type backend = Solo of Core.Backend.t | Race

type anneal = {
  iterations : int;
  seed : int;
  chains : int;
  placement_moves : float;
  warm : bool;
}

type fault = {
  at : int;
  failed_routers : Noc.Coord.t list;
  failed_links : Noc.Link.t list;
}

type run =
  | Plan of backend
  | Validate of backend
  | Anneal of anneal
  | Replan of fault
  | Preempt of int

type work = Sweep of int option | Run of int option * run

type planning = {
  spec : Sysbuild.spec;
  policy : Core.Scheduler.policy;
  application : Proc.Processor.application;
  power_pct : float option;
  work : work;
}

type op = Metrics | Prometheus | Planning of planning

type request = {
  id : Json.t;
  op : op;
  deadline_ms : float option;
  members : (string * Json.t) list;
}

type error_kind =
  | Parse
  | Invalid
  | Unschedulable
  | Timeout
  | Overload
  | Readonly
  | Internal

let op_label = function
  | Metrics -> "metrics"
  | Prometheus -> "prometheus"
  | Planning { work = Sweep _; _ } -> "sweep"
  | Planning { work = Run (_, Plan _); _ } -> "plan"
  | Planning { work = Run (_, Validate _); _ } -> "validate"
  | Planning { work = Run (_, Anneal _); _ } -> "anneal"
  | Planning { work = Run (_, Replan _); _ } -> "replan"
  | Planning { work = Run (_, Preempt _); _ } -> "preempt"

let error_kind_label = function
  | Parse -> "parse"
  | Invalid -> "invalid"
  | Unschedulable -> "unschedulable"
  | Timeout -> "timeout"
  | Overload -> "overload"
  | Readonly -> "read_only"
  | Internal -> "internal"

let ( let* ) = Result.bind

(* "x,y" *)
let parse_coord s =
  let bad () =
    Error (Printf.sprintf "bad coordinate %S (expected \"x,y\")" s)
  in
  match String.split_on_char ',' (String.trim s) with
  | [ x; y ] -> (
      match
        (int_of_string_opt (String.trim x), int_of_string_opt (String.trim y))
      with
      | Some x, Some y when x >= 0 && y >= 0 -> Ok (Noc.Coord.make ~x ~y)
      | _ -> bad ())
  | _ -> bad ()

(* "x1,y1>x2,y2" (directed channel), "inject:x,y" or "eject:x,y"
   (local port) *)
let parse_fault_link s =
  let s = String.trim s in
  match String.index_opt s ':' with
  | Some i -> (
      let kind = String.sub s 0 i in
      let* c = parse_coord (String.sub s (i + 1) (String.length s - i - 1)) in
      match kind with
      | "inject" -> Ok (Noc.Link.Inject c)
      | "eject" -> Ok (Noc.Link.Eject c)
      | _ -> Error (Printf.sprintf "bad link %S (unknown port kind %S)" s kind))
  | None -> (
      match String.index_opt s '>' with
      | Some i ->
          let* a = parse_coord (String.sub s 0 i) in
          let* b =
            parse_coord (String.sub s (i + 1) (String.length s - i - 1))
          in
          if Noc.Coord.equal a b then
            Error (Printf.sprintf "bad link %S (identical endpoints)" s)
          else Ok (Noc.Link.channel a b)
      | None ->
          Error
            (Printf.sprintf
               "bad link %S (expected \"x1,y1>x2,y2\", \"inject:x,y\" or \
                \"eject:x,y\")"
               s))

(* [members] sorted by name, so a repeated name sits next to itself. *)
let rec check_names = function
  | (a, _) :: (b, _) :: _ when String.equal a b ->
      Error (Invalid, Printf.sprintf "duplicate field %S" a)
  | (name, _) :: rest ->
      if List.mem name fields then check_names rest
      else Error (Invalid, Printf.sprintf "unknown field %S" name)
  | [] -> Ok ()

let parse_fields json members =
  let* () =
    match Json.member "v" json with
    | None | Some (Json.Int 1) -> Ok ()
    | Some v ->
        Error
          ( Parse,
            Printf.sprintf "unsupported protocol version %s (this server: %d)"
              (Json.to_string v) version )
  in
  let* () = check_names members in
  (* A member of the wrong type is refused, naming the field, rather
     than read as absent. *)
  let typed name expected cast =
    match Json.member name json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match cast v with
        | Some x -> Ok (Some x)
        | None ->
            Error (Parse, Printf.sprintf "field %S must be %s" name expected))
  in
  let str_opt name =
    typed name "a string" (function Json.String s -> Some s | _ -> None)
  in
  let* op_name = str_opt "op" in
  let* op =
    match op_name with
    | Some "plan" -> Ok `Plan
    | Some "sweep" -> Ok `Sweep
    | Some "validate" -> Ok `Validate
    | Some "anneal" -> Ok `Anneal
    | Some "replan" -> Ok `Replan
    | Some "preempt" -> Ok `Preempt
    | Some "metrics" -> Ok `Metrics
    | Some "prometheus" -> Ok `Prometheus
    | Some other -> Error (Parse, Printf.sprintf "unknown op %S" other)
    | None -> Error (Parse, "missing op field")
  in
  let* policy_name = str_opt "policy" in
  let* policy =
    match policy_name with
    | None | Some "greedy" -> Ok Core.Scheduler.Greedy
    | Some "lookahead" -> Ok Core.Scheduler.Lookahead
    | Some other ->
        Error
          ( Parse,
            Printf.sprintf
              "field \"policy\" must be \"greedy\" or \"lookahead\", not %S"
              other )
  in
  let* application_name = str_opt "application" in
  let* application =
    match application_name with
    | None | Some "bist" -> Ok Proc.Processor.Bist
    | Some "decompress" -> Ok Proc.Processor.Decompression
    | Some other ->
        Error
          ( Parse,
            Printf.sprintf
              "field \"application\" must be \"bist\" or \"decompress\", not %S"
              other )
  in
  let* backend_name = str_opt "backend" in
  let* backend =
    match (backend_name, op) with
    | None, _ -> Ok (Solo Core.Backend.greedy)
    | Some "race", (`Plan | `Validate) -> Ok Race
    | Some name, (`Plan | `Validate) -> (
        match Core.Backend.find name with
        | Some b -> Ok (Solo b)
        | None ->
            Error
              ( Invalid,
                Printf.sprintf
                  "field \"backend\": unknown backend %S (known: %s, race)" name
                  (String.concat ", "
                     (List.map
                        (fun b -> b.Core.Backend.name)
                        Core.Backend.builtins)) ))
    | Some _, _ ->
        Error
          ( Invalid,
            "field \"backend\" only applies to plan and validate requests" )
  in
  let int_opt name =
    typed name "an integer" (function Json.Int i -> Some i | _ -> None)
  in
  let float_opt name =
    typed name "a number" (function
      | Json.Int i -> Some (float_of_int i)
      | Json.Float f -> Some f
      | _ -> None)
  in
  (* Out-of-domain numbers are refused here, naming the field, rather
     than reaching the library as an [Invalid_argument] it raises. *)
  let int_from name lo =
    let* v = int_opt name in
    match v with
    | Some n when n < lo ->
        Error (Invalid, Printf.sprintf "field %S must be >= %d" name lo)
    | v -> Ok v
  in
  let* width = int_from "width" 1 in
  let* height = int_from "height" 1 in
  let* () =
    match (width, height) with
    | Some w, Some h when w > max_mesh_tiles / h ->
        Error
          ( Invalid,
            Printf.sprintf "mesh \"width\" x \"height\" must be <= %d tiles"
              max_mesh_tiles )
    | Some _, None -> Error (Invalid, "field \"width\" requires \"height\"")
    | None, Some _ -> Error (Invalid, "field \"height\" requires \"width\"")
    | _ -> Ok ()
  in
  let* leons = int_from "leons" 0 in
  let* plasmas = int_from "plasmas" 0 in
  let* reuse = int_from "reuse" 0 in
  let* max_reuse = int_from "max_reuse" 0 in
  let* iterations = int_from "iterations" 1 in
  let* seed = int_opt "seed" in
  let* chains = int_from "chains" 1 in
  let* power_pct = float_opt "power_pct" in
  let* () =
    match power_pct with
    | Some p when not (p > 0.0) ->
        Error (Invalid, "field \"power_pct\" must be > 0")
    | _ -> Ok ()
  in
  let* placement_moves = float_opt "placement_moves" in
  let* () =
    match placement_moves with
    | Some r when not (r >= 0.0 && r <= 1.0) ->
        Error (Invalid, "field \"placement_moves\" must be within [0, 1]")
    | _ -> Ok ()
  in
  let* warm =
    typed "warm" "a boolean" (function Json.Bool v -> Some v | _ -> None)
  in
  let* max_sessions = int_from "max_sessions" 1 in
  let* at = int_from "at" 0 in
  (* A fault target list: every item a string [parse] accepts. *)
  let targets name parse compare =
    let* items =
      typed name "a list of strings" (function
        | Json.List items ->
            List.fold_right
              (fun item acc ->
                match (item, acc) with
                | Json.String s, Some acc -> Some (s :: acc)
                | _ -> None)
              items (Some [])
        | _ -> None)
    in
    List.fold_right
      (fun s acc ->
        let* acc = acc in
        match parse s with
        | Ok x -> Ok (x :: acc)
        | Error msg -> Error (Invalid, Printf.sprintf "field %S: %s" name msg))
      (Option.value items ~default:[])
      (Ok [])
    |> Result.map (List.sort_uniq compare)
  in
  let* failed_routers =
    targets "failed_routers" parse_coord Noc.Coord.compare
  in
  let* failed_links =
    targets "failed_links" parse_fault_link Noc.Link.compare
  in
  let* deadline_ms = float_opt "deadline_ms" in
  let* system = str_opt "system" in
  let* soc = str_opt "soc" in
  let planning work =
    let* spec =
      match (system, soc) with
      | None, None -> Error (Parse, "missing system (or inline soc) field")
      | Some name, None when List.mem_assoc name Core.Experiments.builders -> (
          (* A builtin system fixes its own mesh and processors. *)
          match
            List.find_opt
              (fun (_, set) -> set)
              [
                ("width", Option.is_some width);
                ("height", Option.is_some height);
                ("leons", Option.is_some leons);
                ("plasmas", Option.is_some plasmas);
              ]
          with
          | Some (field, _) ->
              Error
                ( Invalid,
                  Printf.sprintf "field %S does not apply to builtin system %s"
                    field name )
          | None -> Ok (Sysbuild.spec name))
      | system, soc_text ->
          Ok
            (Sysbuild.spec ?soc_text ?width ?height ?leons ?plasmas
               (Option.value system ~default:""))
    in
    Ok (Planning { spec; policy; application; power_pct; work })
  in
  let run r = planning (Run (reuse, r)) in
  let* op =
    match op with
    | `Metrics -> Ok Metrics
    | `Prometheus -> Ok Prometheus
    | `Sweep -> planning (Sweep max_reuse)
    | `Plan -> run (Plan backend)
    | `Validate -> run (Validate backend)
    | `Anneal ->
        run
          (Anneal
             {
               iterations = Option.value iterations ~default:400;
               seed = Option.value seed ~default:0x5A;
               chains = Option.value chains ~default:1;
               placement_moves = Option.value placement_moves ~default:0.0;
               warm = Option.value warm ~default:true;
             })
    | `Replan ->
        run
          (Replan
             { at = Option.value at ~default:0; failed_routers; failed_links })
    | `Preempt -> run (Preempt (Option.value max_sessions ~default:3))
  in
  Ok (op, deadline_ms)

let parse_request line =
  match Json.parse line with
  | Error msg -> Error ((Json.Null, Parse), msg)
  | Ok (Json.Obj members as json) -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      let members =
        List.sort (fun (a, _) (b, _) -> String.compare a b) members
      in
      match parse_fields json members with
      | Ok (op, deadline_ms) ->
          let members =
            List.filter (fun (name, _) -> not (String.equal name "id")) members
          in
          Ok { id; op; deadline_ms; members }
      | Error (kind, msg) -> Error ((id, kind), msg))
  | Ok _ -> Error ((Json.Null, Parse), "request must be a JSON object")

(* Every value prefixed by its JSON type and closed (numbers by [;],
   strings by their length up front), so distinct member lists render
   distinctly.  Floats print exactly ([%h]): [Json.to_string]'s
   [%.12g] renders 25.0000000000001 and 25 alike. *)
let rec canonical b = function
  | Json.Null -> Buffer.add_char b 'n'
  | Json.Bool v -> Buffer.add_char b (if v then 't' else 'f')
  | Json.Int i -> Printf.bprintf b "i%d;" i
  | Json.Float f -> Printf.bprintf b "f%h;" f
  | Json.String s | Json.Raw s -> Printf.bprintf b "s%d:%s" (String.length s) s
  | Json.List items ->
      Buffer.add_char b '[';
      List.iter (canonical b) items;
      Buffer.add_char b ']'
  | Json.Obj members ->
      Buffer.add_char b '{';
      List.iter
        (fun (name, v) ->
          canonical b (Json.String name);
          canonical b v)
        members;
      Buffer.add_char b '}'

(* The key covers every member the client sent but [id], so two
   requests share a solve only when they are the same request.
   Observability ops are answered inline (nothing to coalesce), and a
   request carrying a deadline never coalesces: attaching it to another
   request's solve would let a leader's timeout fail followers that
   asked for a different (or no) deadline. *)
let coalesce_key req =
  match (req.op, req.deadline_ms) with
  | (Metrics | Prometheus), _ | Planning _, Some _ -> None
  | Planning _, None ->
      let b = Buffer.create 256 in
      canonical b (Json.Obj req.members);
      Some (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The response is delivered as chunks whose concatenation is the
   line: the (small) envelope head, the result payload, and the
   closing brace.  A [Json.Raw] result — how multi-megabyte sweep and
   plan payloads arrive here — is spliced through untouched instead of
   being copied into a second envelope-sized buffer. *)
let ok_response ~id ~op ~cache ?(coalesced = false) ?backend ~elapsed_ms
    result =
  let head_fields =
    [
      ("v", Json.Int version);
      ("id", id);
      ("ok", Json.Bool true);
      ("op", Json.String op);
    ]
    @ (match cache with
      | `Hit -> [ ("cache", Json.String "hit") ]
      | `Miss -> [ ("cache", Json.String "miss") ]
      | `None -> [])
    @ (match backend with
      | Some name -> [ ("backend", Json.String name) ]
      | None -> [])
    @ (if coalesced then [ ("coalesced", Json.Bool true) ] else [])
    @ [ ("elapsed_ms", Json.Float (Float.round (elapsed_ms *. 1000.) /. 1000.)) ]
  in
  let head = Json.to_string (Json.Obj head_fields) in
  (* Reopen the head object and splice the result in as its last
     field, byte-identical to rendering the whole object at once. *)
  let head = String.sub head 0 (String.length head - 1) in
  let payload =
    match result with Json.Raw s -> s | v -> Json.to_string v
  in
  [ head ^ ", \"result\": "; payload; "}" ]

let error_response ~id kind message =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.Int version);
         ("id", id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("kind", Json.String (error_kind_label kind));
               ("message", Json.String message);
             ] );
       ])
