type entry = { start : int; finish : int; power : float }
type t = { limit : float option; mutable entries : entry list }

let create ~limit =
  (match limit with
  | Some l when l <= 0.0 -> invalid_arg "Power_monitor.create: limit <= 0"
  | Some _ | None -> ());
  { limit; entries = [] }

let limit t = t.limit

let power_at t time =
  List.fold_left
    (fun acc e ->
      if e.start <= time && time < e.finish then acc +. e.power else acc)
    0.0 t.entries

(* The instantaneous sum only changes at interval starts, so the peak
   over a window is attained at the window start or at the start of
   some overlapping entry. *)
let peak_over t ~start ~finish =
  let candidates =
    start
    :: List.filter_map
         (fun e ->
           if e.start > start && e.start < finish then Some e.start else None)
         t.entries
  in
  List.fold_left (fun acc time -> Float.max acc (power_at t time)) 0.0 candidates

let epsilon = 1e-9

let fits t ~start ~finish ~power =
  start >= finish
  ||
  match t.limit with
  | None -> true
  | Some l -> peak_over t ~start ~finish +. power <= l +. epsilon

let add t ~start ~finish ~power =
  if start < 0 || finish < start then
    invalid_arg "Power_monitor.add: malformed window";
  if power < 0.0 then invalid_arg "Power_monitor.add: negative power";
  if not (fits t ~start ~finish ~power) then
    invalid_arg "Power_monitor.add: limit exceeded (check fits first)";
  if start < finish then t.entries <- { start; finish; power } :: t.entries

let peak t =
  let starts = List.map (fun e -> e.start) t.entries in
  List.fold_left (fun acc s -> Float.max acc (power_at t s)) 0.0 starts
