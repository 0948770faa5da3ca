type booking = { owner : int; start : int; finish : int }

(* Per-channel calendar: bookings in parallel growable arrays, sorted
   by start time.  Reserved intervals never overlap, so the finish
   times are sorted too and every query reduces to one binary
   search. *)
type cal = {
  mutable starts : int array;
  mutable finishes : int array;
  mutable owners : int array;
  mutable len : int;
}

(* Channels are the caller's dense nonnegative ids, so the calendar is
   a plain array indexed by channel — the scheduler probes it inside
   its inner candidate loop, where even a hashed lookup per link was
   measurable.  Untouched channels share one immutable empty calendar
   that is swapped for a private one on first booking. *)
type t = { mutable cals : cal array }

let empty_cal = { starts = [||]; finishes = [||]; owners = [||]; len = 0 }
let create () = { cals = Array.make 16 empty_cal }

let cal_at t c = if c < Array.length t.cals then t.cals.(c) else empty_cal

(* Forget every booking but keep each channel's private calendar and
   its capacity: a cleared calendar re-books without allocating, which
   is what makes reusing one calendar across thousands of scheduler
   evaluations worthwhile. *)
let clear t =
  Array.iter (fun cal -> if cal != empty_cal then cal.len <- 0) t.cals

let fresh_cal () =
  {
    starts = Array.make 8 0;
    finishes = Array.make 8 0;
    owners = Array.make 8 0;
    len = 0;
  }

(* The private, writable calendar of a channel, growing the channel
   array as needed. *)
let writable_cal t c =
  if c >= Array.length t.cals then begin
    let cals = Array.make (max (c + 1) (2 * Array.length t.cals)) empty_cal in
    Array.blit t.cals 0 cals 0 (Array.length t.cals);
    t.cals <- cals
  end;
  let cal = t.cals.(c) in
  if cal != empty_cal then cal
  else begin
    let cal = fresh_cal () in
    t.cals.(c) <- cal;
    cal
  end

(* Index of the first booking that ends after [time] — the only one
   that can overlap a window starting at [time].  Binary search over
   the (sorted) finish times. *)
let first_ending_after cal time =
  let lo = ref 0 and hi = ref cal.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cal.finishes.(mid) > time then hi := mid else lo := mid + 1
  done;
  !lo

let cal_free cal ~start ~finish =
  let i = first_ending_after cal start in
  i >= cal.len || cal.starts.(i) >= finish

(* Decisions-level diagnostics for a failed probe: the first booking
   blocking the window on [channel].  Off the fast path — only reached
   when the probe already failed and a collector asked for decision
   events. *)
let emit_conflict t channel ~start ~finish =
  let cal = cal_at t channel in
  let i = first_ending_after cal start in
  if i < cal.len then
    Nocplan_obs.Trace.instant "noc.reservation.conflict"
      ~attrs:
        [
          ("channel", Nocplan_obs.Trace.Int channel);
          ("owner", Nocplan_obs.Trace.Int cal.owners.(i));
          ("busy_start", Nocplan_obs.Trace.Int cal.starts.(i));
          ("busy_finish", Nocplan_obs.Trace.Int cal.finishes.(i));
          ("start", Nocplan_obs.Trace.Int start);
          ("finish", Nocplan_obs.Trace.Int finish);
        ]

let is_free t channels ~start ~finish =
  start >= finish
  ||
  let n = Array.length channels in
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    ok := cal_free (cal_at t channels.(!i)) ~start ~finish;
    incr i
  done;
  if (not !ok) && Nocplan_obs.Trace.decisions () then
    emit_conflict t channels.(!i - 1) ~start ~finish;
  !ok

let conflicts t channels ~start ~finish =
  if start >= finish then []
  else
    List.concat_map
      (fun c ->
        let cal = cal_at t c in
        let rec go i acc =
          if i >= cal.len || cal.starts.(i) >= finish then List.rev acc
          else
            let b =
              {
                owner = cal.owners.(i);
                start = cal.starts.(i);
                finish = cal.finishes.(i);
              }
            in
            go (i + 1) ((c, b) :: acc)
        in
        go (first_ending_after cal start) [])
      (Array.to_list channels)

let ensure_capacity cal =
  if cal.len = Array.length cal.starts then begin
    let cap = 2 * cal.len in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 cal.len;
      b
    in
    cal.starts <- grow cal.starts;
    cal.finishes <- grow cal.finishes;
    cal.owners <- grow cal.owners
  end

(* Insert into a calendar the window was checked free on.  Everything
   before the insertion point ends by [start]; everything from it on
   starts at or after [finish] — sortedness is preserved. *)
let cal_insert cal ~owner ~start ~finish =
  ensure_capacity cal;
  let i = first_ending_after cal start in
  let tail = cal.len - i in
  Array.blit cal.starts i cal.starts (i + 1) tail;
  Array.blit cal.finishes i cal.finishes (i + 1) tail;
  Array.blit cal.owners i cal.owners (i + 1) tail;
  cal.starts.(i) <- start;
  cal.finishes.(i) <- finish;
  cal.owners.(i) <- owner;
  cal.len <- cal.len + 1

let reserve t ~owner channels ~start ~finish =
  if start < 0 || finish < start then
    invalid_arg "Reservation.reserve: bad interval";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Reservation.reserve: negative channel")
    channels;
  if not (is_free t channels ~start ~finish) then
    invalid_arg "Reservation.reserve: window is not free";
  if start < finish then
    Array.iter
      (fun c -> cal_insert (writable_cal t c) ~owner ~start ~finish)
      channels

let next_free_time t channels ~from ~duration =
  if duration <= 0 then from
  else begin
    (* Fixpoint: any booking overlapping the candidate window pushes
       the candidate to that booking's finish.  Each step discards at
       least one booking, so it terminates, and any feasible start must
       be at or past every finish it jumps over — the result is the
       earliest free time. *)
    let candidate = ref from in
    let moved = ref true in
    while !moved do
      moved := false;
      Array.iter
        (fun c ->
          let cal = cal_at t c in
          let i = first_ending_after cal !candidate in
          if i < cal.len && cal.starts.(i) < !candidate + duration then begin
            candidate := cal.finishes.(i);
            moved := true
          end)
        channels
    done;
    !candidate
  end

let bookings t channel =
  let cal = cal_at t channel in
  List.init cal.len (fun i ->
      {
        owner = cal.owners.(i);
        start = cal.starts.(i);
        finish = cal.finishes.(i);
      })
