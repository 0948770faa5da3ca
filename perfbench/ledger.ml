(* Per-layer self time.

   A ledger folds nested spans — recorded by the benchmark around its
   calls into each layer, or read back from a program's trace — into
   per-name totals: calls, inclusive time, and self time (inclusive
   time minus the time of the span's direct children).  Self times of
   disjoint layers add up without double counting, so the share of a
   window's wall time that no named layer covers is
   [1 - attributed / wall]; it is reported, never dropped.

   Spans nest per thread: a ledger keeps one open-span stack per
   thread id.  A ledger is not itself thread-safe — the benchmark
   records from one domain, and trace files are folded after the
   fact. *)

type acc = { mutable calls : int; mutable incl : float; mutable self : float }

type frame = { name : string; start : float; mutable child : float }

type t = {
  stacks : (int, frame list) Hashtbl.t;
  totals : (string, acc) Hashtbl.t;
}

let create () = { stacks = Hashtbl.create 4; totals = Hashtbl.create 16 }

let acc t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a
  | None ->
      let a = { calls = 0; incl = 0.0; self = 0.0 } in
      Hashtbl.replace t.totals name a;
      a

let enter t ?(tid = 0) name ts =
  let stack = Option.value (Hashtbl.find_opt t.stacks tid) ~default:[] in
  Hashtbl.replace t.stacks tid ({ name; start = ts; child = 0.0 } :: stack)

(* Close the innermost open span of [tid] (an unmatched end, e.g. from
   a trace cut at a ring boundary, is ignored). *)
let leave t ?(tid = 0) ts =
  match Hashtbl.find_opt t.stacks tid with
  | None | Some [] -> ()
  | Some (f :: rest) ->
      let d = ts -. f.start in
      let a = acc t f.name in
      a.calls <- a.calls + 1;
      a.incl <- a.incl +. d;
      a.self <- a.self +. (d -. f.child);
      (match rest with parent :: _ -> parent.child <- parent.child +. d | [] -> ());
      Hashtbl.replace t.stacks tid rest

(* Time [f ()] as a span named [name] on the wall clock. *)
let span t name f =
  enter t name (Util.now ());
  match f () with
  | v ->
      leave t (Util.now ());
      v
  | exception e ->
      leave t (Util.now ());
      raise e

let calls t name =
  match Hashtbl.find_opt t.totals name with Some a -> a.calls | None -> 0

let incl t name =
  match Hashtbl.find_opt t.totals name with Some a -> a.incl | None -> 0.0

let self t name =
  match Hashtbl.find_opt t.totals name with Some a -> a.self | None -> 0.0

(* Self time summed over every recorded name. *)
let attributed t = Hashtbl.fold (fun _ a sum -> sum +. a.self) t.totals 0.0

let unattributed_share t ~wall =
  if wall <= 0.0 then 0.0 else Float.max 0.0 (1.0 -. (attributed t /. wall))
