(* The seeded serve-mix request generator.

   A pure function of the seed: request [i] of a generator is the same
   JSON line on every run, and the arrival gaps come from a separate
   stream, so the open-loop and saturation phases see the same
   requests whatever their timing.

   The mix is mostly plan/validate, plus sweep and anneal, with small
   shares of replan, preempt and metrics.  About half the planning
   requests repeat one of a few hot templates (table-cache,
   shared-evaluation-cache, in-flight and warm-start hits); the rest
   draw fresh parameters over the builtin systems, and a minority carry
   an inline [soc] description printed from a synthetic corpus item —
   a system the server has never seen, so it parses and misses the
   table cache.  Ops, request sources and the parameters that set a
   fresh request's cost are dealt from shuffled decks, so every block
   of requests has the same mix whatever the seed. *)

module Json = Nocplan_serve.Json
module Corpus = Nocplan_corpus.Corpus

type kind = Hot | Unique | Inline | Observe

let kind_label = function
  | Hot -> "hot"
  | Unique -> "unique"
  | Inline -> "inline"
  | Observe -> "observe"

type spec = {
  system : string;  (** builtin name; [""] for an inline description *)
  soc_text : string option;
  width : int option;
  height : int option;
  leons : int;
  plasmas : int;
}

type request = {
  id : string;
  op : string;
  kind : kind;
  spec : spec option;  (** [None] for [metrics] *)
  policy : string;
  power_pct : float option;
  reuse : int option;
  backend : string option;
  iterations : int;
  anneal_seed : int;
  max_sessions : int;
  at : int;
  failed_router : (int * int) option;
  line : string;
}

let ops = [ "plan"; "validate"; "sweep"; "anneal"; "replan"; "preempt"; "metrics" ]

(* Percent weights of [ops], in order. *)
let op_weights = [ 40; 28; 8; 10; 4; 4; 6 ]

(* Builtin systems with their processor counts and mesh sizes. *)
let builtins =
  [
    ("d695_leon", 6, (4, 4));
    ("d695_mixed", 6, (4, 4));
    ("p22810_leon", 8, (5, 6));
    ("p22810_mixed", 8, (5, 6));
    ("p93791_leon", 8, (5, 5));
    ("p93791_mixed", 8, (5, 5));
  ]

let powers = [| None; Some 25.0; Some 35.0; Some 50.0; Some 70.0 |]
let anneal_iterations = [| 10; 20; 30 |]

type template = {
  t_system : string;
  t_mesh : int * int;
  t_reuse : int;
  t_power : float option;
  t_policy : string;
  t_seed : int;
  t_iterations : int;
}

type t = {
  rng : Random.State.t;  (** request parameters *)
  arrivals : Random.State.t;  (** open-loop gaps *)
  hot : template list;
  mutable next : int;
  mutable inline_index : int;
  mutable bursting : bool;
  decks : (string, int list) Hashtbl.t;  (** the cards left in each deck *)
}

(* The draws that set a request's cost come from shuffled decks that
   hold their shares exactly: the op (a deck of 50 cards for 50
   requests), the request source (100 rolls), the hot template, the
   backend, and per op the system, reuse, power limit, policy and
   anneal iterations of a fresh request.  Every block of requests then
   has the same mix, and the seed moves only the order and the
   remaining parameters.  The arrival process deals from decks of its
   own, shuffled by its own stream. *)
let deal ?rng g name cards =
  let rng = Option.value rng ~default:g.rng in
  let cards =
    match Hashtbl.find_opt g.decks name with
    | Some (_ :: _ as left) -> left
    | _ ->
        List.map (fun c -> (Random.State.bits rng, c)) cards
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
  in
  Hashtbl.replace g.decks name (List.tl cards);
  List.hd cards

let op_cards = List.concat (List.mapi (fun i w -> List.init (w / 2) (fun _ -> i)) op_weights)
let indices n = List.init n Fun.id

(* The builtin systems a request of [op] may name.  Fault-aware
   replanning of the larger builtins takes 35-80 ms, ten times any
   other op; with them every p99 hung on the two or three queueing
   episodes a run's replans start.  Replans name the d695 systems only. *)
let systems_for op =
  if op = "replan" then
    List.filter (fun (name, _, _) -> String.starts_with ~prefix:"d695" name) builtins
  else builtins

(* A fresh template for [op]. *)
let template g op =
  let card field n = deal g (op ^ "." ^ field) (indices n) in
  let systems = systems_for op in
  let name, procs, mesh = List.nth systems (card "system" (List.length systems)) in
  let reuse = card ("reuse." ^ name) (procs + 1) in
  let power = powers.(card "power" (Array.length powers)) in
  let policy = if card "policy" 4 = 0 then "lookahead" else "greedy" in
  let iterations = anneal_iterations.(card "iterations" (Array.length anneal_iterations)) in
  {
    t_system = name;
    t_mesh = mesh;
    t_reuse = reuse;
    t_power = power;
    t_policy = policy;
    t_seed = Random.State.int g.rng 1000;
    t_iterations = iterations;
  }

let create ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  (* One fixed hot template per builtin system (full reuse, the
     paper's 50% power limit, greedy): the hot traffic is the same for
     every seed, so its cost — which sets the saturation capacity —
     does not depend on the seed. *)
  let hot =
    List.map
      (fun (name, procs, mesh) ->
        {
          t_system = name;
          t_mesh = mesh;
          t_reuse = procs;
          t_power = Some 50.0;
          t_policy = "greedy";
          t_seed = procs;
          t_iterations = 20;
        })
      builtins
  in
  {
    rng;
    arrivals = Random.State.make [| seed; 0xa77 |];
    hot;
    next = 0;
    inline_index = 0;
    bursting = false;
    decks = Hashtbl.create 32;
  }

(* The corpus the inline descriptions come from, the same for every
   seed: a run's inline systems are its first items, in order, so their
   cost does not move with the seed. *)
let inline_corpus = 0x1a11eL

let builtin_spec name =
  { system = name; soc_text = None; width = None; height = None; leons = 0; plasmas = 0 }

let render r =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let spec_fields =
    match r.spec with
    | None -> []
    | Some s -> (
        match s.soc_text with
        | None -> [ ("system", Json.String s.system) ]
        | Some text ->
            [
              ("soc", Json.String text);
              ("leons", Json.Int s.leons);
              ("plasmas", Json.Int s.plasmas);
            ]
            @ opt "width" (fun w -> Json.Int w) s.width
            @ opt "height" (fun h -> Json.Int h) s.height)
  in
  let planning = r.spec <> None in
  let op_fields =
    match r.op with
    | "anneal" ->
        [ ("iterations", Json.Int r.iterations); ("seed", Json.Int r.anneal_seed) ]
    | "preempt" -> [ ("max_sessions", Json.Int r.max_sessions) ]
    | "replan" ->
        [ ("at", Json.Int r.at) ]
        @ opt "failed_routers"
            (fun (x, y) -> Json.List [ Json.String (Printf.sprintf "%d,%d" x y) ])
            r.failed_router
    | _ -> []
  in
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Int 1); ("id", Json.String r.id); ("op", Json.String r.op) ]
       @ spec_fields
       @ (if planning then [ ("policy", Json.String r.policy) ] else [])
       @ opt "power_pct" (fun p -> Json.Float p) r.power_pct
       @ opt "reuse" (fun n -> Json.Int n) r.reuse
       @ opt "backend" (fun b -> Json.String b) r.backend
       @ op_fields))

let blank ~id op =
  {
    id;
    op;
    kind = Observe;
    spec = None;
    policy = "greedy";
    power_pct = None;
    reuse = None;
    backend = None;
    iterations = 0;
    anneal_seed = 0;
    max_sessions = 0;
    at = 0;
    failed_router = None;
    line = "";
  }

(* A [metrics] request outside the stream. *)
let metrics ~id =
  let r = blank ~id "metrics" in
  { r with line = render r }

(* The next request of the stream. *)
let next g =
  let rng = g.rng in
  let id = Printf.sprintf "r%d" g.next in
  g.next <- g.next + 1;
  let op = List.nth ops (deal g "op" op_cards) in
  let base = blank ~id op in
  let r =
    if op = "metrics" then base
    else
      (* Inline descriptions only on plan/validate: the ops whose cost
         a parse and a table miss dominate. *)
      let source =
        let roll = deal g "source" (indices 100) in
        if roll < 50 then Hot
        else if roll < 76 && (op = "plan" || op = "validate") then Inline
        else Unique
      in
      let backend () =
        match op with
        | "plan" | "validate" ->
            (* No "race": it spawns a domain per backend, more than a
               2-core host runs beside the server and its client, and
               the contention would set the tail. *)
            if deal g "backend" (indices 25) < 3 then Some "binpack" else None
        | _ -> None
      in
      let with_template k (t : template) ~router =
        {
          base with
          kind = k;
          spec = Some (builtin_spec t.t_system);
          (* Lookahead costs up to ten times greedy: only fresh
             plan/validate requests use it, so the tail does not hang
             on which hot template drew it. *)
          policy = (if k = Unique && (op = "plan" || op = "validate") then t.t_policy else "greedy");
          power_pct = t.t_power;
          reuse = Some t.t_reuse;
          iterations = t.t_iterations;
          anneal_seed = t.t_seed;
          max_sessions = 2 + (t.t_seed mod 2);
          at = 50_000 * (t.t_seed mod 4);
          failed_router = (if op = "replan" then Some router else None);
        }
      in
      match source with
      | Hot ->
          (* Hot requests keep their template's parameters whole, so
             repeats are byte-identical apart from the id. *)
          let hot =
            List.filter
              (fun t -> List.exists (fun (name, _, _) -> name = t.t_system) (systems_for op))
              g.hot
          in
          let t = List.nth hot (deal g (op ^ ".hot") (indices (List.length hot))) in
          let w, h = t.t_mesh in
          with_template Hot t ~router:(t.t_seed mod w, t.t_seed mod h)
      | Unique | Observe ->
          let t = template g op in
          let w, h = t.t_mesh in
          let router = (Random.State.int rng w, Random.State.int rng h) in
          { (with_template Unique t ~router) with backend = backend () }
      | Inline ->
          let item = Corpus.item ~seed:inline_corpus ~index:g.inline_index in
          g.inline_index <- g.inline_index + 1;
          let procs = item.Corpus.leons + item.Corpus.plasmas in
          {
            base with
            kind = Inline;
            spec =
              Some
                {
                  system = "";
                  soc_text = Some (Nocplan_itc02.Printer.to_string item.Corpus.soc);
                  width = Some item.Corpus.width;
                  height = Some item.Corpus.height;
                  leons = item.Corpus.leons;
                  plasmas = item.Corpus.plasmas;
                };
            (* No power limit: the corpus floors its budgets for the
               system it draws, not for the one the server assembles
               from the printed description. *)
            reuse = Some (Random.State.int rng (procs + 1));
            backend = backend ();
          }
  in
  { r with line = render r }

(* Open-loop arrivals: a two-state modulated Poisson process.  Calm
   stretches average [1 / calm_exit] requests, bursts [1 / burst_exit]
   requests at [burst_factor] times the calm rate; the calm rate is
   chosen so the long-run mean is [rate] requests per second.  Its
   uniform draws are stratified: every block of [strata] draws holds
   one from each [1 / strata] slice of the unit interval, in a shuffled
   order, so that no seed's arrivals are much clumpier than another's. *)
let calm_exit = 0.05
let burst_exit = 0.15
let burst_factor = 2.0
let strata = 100

let uniform g name =
  (float_of_int (deal ~rng:g.arrivals g name (indices strata)) +. Random.State.float g.arrivals 1.0)
  /. float_of_int strata

let next_gap g ~rate =
  let n_calm = 1.0 /. calm_exit and n_burst = 1.0 /. burst_exit in
  let calm_rate =
    rate *. (n_calm +. (n_burst /. burst_factor)) /. (n_calm +. n_burst)
  in
  let r = if g.bursting then calm_rate *. burst_factor else calm_rate in
  let gap = -.Float.log (1.0 -. uniform g "arrival.gap") /. r in
  let switch = uniform g "arrival.switch" in
  if g.bursting then (if switch < burst_exit then g.bursting <- false)
  else if switch < calm_exit then g.bursting <- true;
  gap
