module Core = Nocplan_core
module Proc = Nocplan_proc

let evals_per_entry = 8

type entry = {
  key : string;
  application : Proc.Processor.application;
  system : Core.System.t;
  table : Core.Test_access.table;
  (* Guards [evals] only: a check-out never waits behind another
     system's table build, which holds the cache-wide mutex. *)
  lock : Mutex.t;
  mutable evals : Core.Eval_cache.t list;  (* most recently used first *)
}

type t = {
  capacity : int;
  mutex : Mutex.t;
  mutable entries : entry list;  (* most recently used first *)
  mutable hits : int;
  mutable misses : int;
  eval_hits : int Atomic.t;
  eval_misses : int Atomic.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Table_cache.create: capacity must be >= 1";
  {
    capacity;
    mutex = Mutex.create ();
    entries = [];
    hits = 0;
    misses = 0;
    eval_hits = Atomic.make 0;
    eval_misses = Atomic.make 0;
  }

let app_tag = function
  | Proc.Processor.Bist -> "bist"
  | Proc.Processor.Decompression -> "decompress"

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Move [e] to the front of the recency list; the caller holds the
   lock. *)
let touch t e =
  t.hits <- t.hits + 1;
  t.entries <- e :: List.filter (fun x -> x != e) t.entries;
  (e, true)

let find_or_build t system ~application =
  (* Builtin systems are shared instances (Sysbuild builds each once
     per process), so most requests carry the very system an entry
     holds: matching it physically skips rendering the fingerprint,
     which costs more than the rest of a cache-hit lookup. *)
  let resident =
    locked t.mutex (fun () ->
        match
          List.find_opt
            (fun e -> e.system == system && e.application = application)
            t.entries
        with
        | Some e -> Some (touch t e)
        | None -> None)
  in
  match resident with
  | Some found -> found
  | None ->
      let key = Core.System.fingerprint system ^ "/" ^ app_tag application in
      locked t.mutex (fun () ->
          match List.find_opt (fun e -> e.key = key) t.entries with
          | Some e -> touch t e
          | None ->
              t.misses <- t.misses + 1;
              let table = Core.Test_access.table ~application system in
              let e =
                { key; application; system; table; lock = Mutex.create ();
                  evals = [] }
              in
              let kept =
                if List.length t.entries >= t.capacity then
                  List.filteri (fun i _ -> i < t.capacity - 1) t.entries
                else t.entries
              in
              t.entries <- e :: kept;
              (e, false))

let system e = e.system
let table e = e.table

let checkout t e cfg =
  let resident =
    locked e.lock (fun () ->
        match
          List.partition
            (fun c -> Core.Eval_cache.matches c ~system:e.system cfg)
            e.evals
        with
        | c :: _, rest ->
            e.evals <- rest;
            Some c
        | [], _ -> None)
  in
  match resident with
  | Some c ->
      Atomic.incr t.eval_hits;
      (c, true)
  | None ->
      Atomic.incr t.eval_misses;
      (Core.Eval_cache.create ~access:e.table e.system cfg, false)

let checkin e cfg cache =
  (* A cache rebased onto a placement-mutated system is dropped: no
     later request resolves to that instance. *)
  if Core.Eval_cache.system cache == e.system then
    locked e.lock (fun () ->
        match
          List.find_opt
            (fun c -> Core.Eval_cache.matches c ~system:e.system cfg)
            e.evals
        with
        | Some resident -> Core.Eval_cache.merge ~into:resident cache
        | None ->
            e.evals <-
              cache :: List.filteri (fun i _ -> i < evals_per_entry - 1) e.evals)

let hits t = locked t.mutex (fun () -> t.hits)
let misses t = locked t.mutex (fun () -> t.misses)
let length t = locked t.mutex (fun () -> List.length t.entries)
let eval_hits t = Atomic.get t.eval_hits
let eval_misses t = Atomic.get t.eval_misses
