module Core = Nocplan_core
module Proc = Nocplan_proc
module Noc = Nocplan_noc

let version = 1
let max_mesh_tiles = 4096

type op = Plan | Sweep | Validate | Anneal | Replan | Preempt | Metrics | Prometheus

type backend = Solo of Core.Backend.t | Race

type request = {
  id : Json.t;
  op : op;
  spec : Sysbuild.spec option;
  policy : Core.Scheduler.policy;
  application : Proc.Processor.application;
  backend : backend option;
  power_pct : float option;
  reuse : int option;
  max_reuse : int option;
  iterations : int option;
  seed : int option;
  chains : int option;
  placement_moves : float option;
  warm : bool option;
  max_sessions : int option;
  at : int option;
  fault_routers : Noc.Coord.t list;
  fault_links : Noc.Link.t list;
  deadline_ms : float option;
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
  | Plan -> "plan"
  | Sweep -> "sweep"
  | Validate -> "validate"
  | Anneal -> "anneal"
  | Replan -> "replan"
  | Preempt -> "preempt"
  | Metrics -> "metrics"
  | Prometheus -> "prometheus"

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

let parse_fields ~id json =
  let invalid_err r = Result.map_error (fun msg -> (Invalid, msg)) r in
  let* () =
    match Json.member "v" json with
    | None | Some (Json.Int 1) -> Ok ()
    | Some v ->
        Error
          ( Parse,
            Printf.sprintf "unsupported protocol version %s (this server: %d)"
              (Json.to_string v) version )
  in
  let* op =
    match Json.str_field "op" json with
    | Some "plan" -> Ok Plan
    | Some "sweep" -> Ok Sweep
    | Some "validate" -> Ok Validate
    | Some "anneal" -> Ok Anneal
    | Some "replan" -> Ok Replan
    | Some "preempt" -> Ok Preempt
    | Some "metrics" -> Ok Metrics
    | Some "prometheus" -> Ok Prometheus
    | Some other -> Error (Parse, Printf.sprintf "unknown op %S" other)
    | None -> Error (Parse, "missing op field")
  in
  let* policy =
    match Json.str_field "policy" json with
    | None -> Ok Core.Scheduler.Greedy
    | Some "greedy" -> Ok Core.Scheduler.Greedy
    | Some "lookahead" -> Ok Core.Scheduler.Lookahead
    | Some other -> Error (Parse, Printf.sprintf "unknown policy %S" other)
  in
  let* application =
    match Json.str_field "application" json with
    | None -> Ok Proc.Processor.Bist
    | Some "bist" -> Ok Proc.Processor.Bist
    | Some "decompress" -> Ok Proc.Processor.Decompression
    | Some other ->
        Error (Parse, Printf.sprintf "unknown application %S" other)
  in
  let* backend =
    match Json.str_field "backend" json with
    | None -> Ok None
    | Some name -> (
        match op with
        | Plan | Validate -> (
            match Core.Backend.find name with
            | Some b -> Ok (Some (Solo b))
            | None when name = "race" -> Ok (Some Race)
            | None ->
                Error
                  ( Invalid,
                    Printf.sprintf "unknown backend %S (known: %s, race)" name
                      (String.concat ", "
                         (List.map
                            (fun b -> b.Core.Backend.name)
                            Core.Backend.builtins)) ))
        | _ ->
            Error
              ( Invalid,
                "field \"backend\" only applies to plan and validate requests"
              ))
  in
  let int_opt name =
    match Json.member name json with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int i) -> Ok (Some i)
    | Some _ ->
        Error (Parse, Printf.sprintf "field %S must be an integer" name)
  in
  let float_opt name =
    match Json.member name json with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int i) -> Ok (Some (float_of_int i))
    | Some (Json.Float f) -> Ok (Some f)
    | Some _ -> Error (Parse, Printf.sprintf "field %S must be a number" name)
  in
  let str_list name =
    match Json.member name json with
    | None | Some Json.Null -> Ok []
    | Some (Json.List items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | Json.String s -> Ok (s :: acc)
            | _ ->
                Error
                  (Parse, Printf.sprintf "field %S must be a list of strings" name))
          items (Ok [])
    | Some _ ->
        Error (Parse, Printf.sprintf "field %S must be a list of strings" name)
  in
  (* Out-of-domain numbers are refused here, naming the field, rather
     than reaching the library as an [Invalid_argument] it raises. *)
  let at_least name lo = function
    | Some n when n < lo ->
        Error (Invalid, Printf.sprintf "field %S must be >= %d" name lo)
    | _ -> Ok ()
  in
  let* width = int_opt "width" in
  let* () = at_least "width" 1 width in
  let* height = int_opt "height" in
  let* () = at_least "height" 1 height in
  let* () =
    match (width, height) with
    | Some w, Some h when w > max_mesh_tiles / h ->
        Error
          ( Invalid,
            Printf.sprintf "mesh \"width\" x \"height\" must be <= %d tiles"
              max_mesh_tiles )
    | _ -> Ok ()
  in
  let* leons = int_opt "leons" in
  let* () = at_least "leons" 0 leons in
  let* plasmas = int_opt "plasmas" in
  let* () = at_least "plasmas" 0 plasmas in
  let* reuse = int_opt "reuse" in
  let* () = at_least "reuse" 0 reuse in
  let* max_reuse = int_opt "max_reuse" in
  let* () = at_least "max_reuse" 0 max_reuse in
  let* iterations = int_opt "iterations" in
  let* () = at_least "iterations" 1 iterations in
  let* seed = int_opt "seed" in
  let* chains = int_opt "chains" in
  let* () = at_least "chains" 1 chains in
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
  let bool_opt name =
    match Json.member name json with
    | None | Some Json.Null -> Ok None
    | Some (Json.Bool v) -> Ok (Some v)
    | Some _ ->
        Error (Parse, Printf.sprintf "field %S must be a boolean" name)
  in
  let* warm = bool_opt "warm" in
  let* max_sessions = int_opt "max_sessions" in
  let* () = at_least "max_sessions" 1 max_sessions in
  let* at = int_opt "at" in
  let* () = at_least "at" 0 at in
  let* router_strs = str_list "failed_routers" in
  let* fault_routers =
    invalid_err
      (List.fold_right
         (fun s acc ->
           Result.bind acc (fun acc ->
               Result.map (fun c -> c :: acc) (parse_coord s)))
         router_strs (Ok []))
  in
  let* link_strs = str_list "failed_links" in
  let* fault_links =
    invalid_err
      (List.fold_right
         (fun s acc ->
           Result.bind acc (fun acc ->
               Result.map (fun l -> l :: acc) (parse_fault_link s)))
         link_strs (Ok []))
  in
  let fault_routers = List.sort_uniq Noc.Coord.compare fault_routers in
  let fault_links = List.sort_uniq Noc.Link.compare fault_links in
  let* deadline_ms = float_opt "deadline_ms" in
  let soc_text = Json.str_field "soc" json in
  let system = Json.str_field "system" json in
  let* spec =
    match (op, system, soc_text) with
    | (Metrics | Prometheus), _, _ -> Ok None
    | _, None, None -> Error (Parse, "missing system (or inline soc) field")
    | _, system, soc_text ->
        Ok
          (Some
             {
               Sysbuild.system = Option.value system ~default:"";
               soc_text;
               width;
               height;
               leons = Option.value leons ~default:0;
               plasmas = Option.value plasmas ~default:0;
             })
  in
  Ok
    {
      id;
      op;
      spec;
      policy;
      application;
      backend;
      power_pct;
      reuse;
      max_reuse;
      iterations;
      seed;
      chains;
      placement_moves;
      warm;
      max_sessions;
      at;
      fault_routers;
      fault_links;
      deadline_ms;
    }

let parse_request line =
  match Json.parse line with
  | Error msg -> Error ((Json.Null, Parse), msg)
  | Ok (Json.Obj _ as json) ->
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      Result.map_error
        (fun (kind, msg) -> ((id, kind), msg))
        (parse_fields ~id json)
  | Ok _ -> Error ((Json.Null, Parse), "request must be a JSON object")

(* Requests that may coalesce hash to a canonical signature covering
   every result-shaping field — the op, the full system spec and all
   solver parameters — but not the client-chosen [id].  Observability
   ops are answered inline (nothing to coalesce), and a request
   carrying a deadline never coalesces: attaching it to another
   request's solve would let a leader's timeout fail followers that
   asked for a different (or no) deadline. *)
let coalesce_key req =
  match req.op with
  | Metrics | Prometheus -> None
  | Plan | Sweep | Validate | Anneal | Replan | Preempt -> (
      match req.deadline_ms with
      | Some _ -> None
      | None ->
          let b = Buffer.create 256 in
          let add s =
            Buffer.add_string b s;
            Buffer.add_char b '\x00'
          in
          let add_int_opt v =
            add (match v with None -> "-" | Some i -> string_of_int i)
          in
          add (op_label req.op);
          (match req.spec with
          | None -> add "-"
          | Some s ->
              add s.Sysbuild.system;
              add (Option.value s.Sysbuild.soc_text ~default:"");
              add_int_opt s.Sysbuild.width;
              add_int_opt s.Sysbuild.height;
              add (string_of_int s.Sysbuild.leons);
              add (string_of_int s.Sysbuild.plasmas));
          add
            (match req.policy with
            | Core.Scheduler.Greedy -> "greedy"
            | Core.Scheduler.Lookahead -> "lookahead");
          add
            (match req.application with
            | Proc.Processor.Bist -> "bist"
            | Proc.Processor.Decompression -> "decompress");
          (* [backend] shapes the plan itself, so requests asking
             different backends must never share a solve. *)
          add
            (match req.backend with
            | None -> "-"
            | Some (Solo b) -> b.Core.Backend.name
            | Some Race -> "race");
          add
            (match req.power_pct with
            | None -> "-"
            | Some f -> Printf.sprintf "%h" f);
          add_int_opt req.reuse;
          add_int_opt req.max_reuse;
          add_int_opt req.iterations;
          add_int_opt req.seed;
          add_int_opt req.chains;
          (match req.placement_moves with
          | None -> add "-"
          | Some f -> add (Printf.sprintf "%h" f));
          (* [warm] shapes the anneal result (a warm-started search
             follows a different trajectory), so requests differing
             only in it must never coalesce. *)
          add (match req.warm with None -> "-" | Some v -> string_of_bool v);
          add_int_opt req.max_sessions;
          add_int_opt req.at;
          List.iter (fun c -> add (Fmt.str "%a" Noc.Coord.pp c)) req.fault_routers;
          add "|";
          List.iter (fun l -> add (Fmt.str "%a" Noc.Link.pp l)) req.fault_links;
          Some (Digest.to_hex (Digest.string (Buffer.contents b))))

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
      ("op", Json.String (op_label op));
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
