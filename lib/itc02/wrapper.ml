type t = { width : int; scan_in_max : int; scan_out_max : int }

(* LPT partition: [chains] are bin loads, mutable during construction.
   Returns the bin load array. *)
let lpt_loads ~bins items =
  let loads = Array.make bins 0 in
  let place item =
    let min_idx = ref 0 in
    for i = 1 to bins - 1 do
      if loads.(i) < loads.(!min_idx) then min_idx := i
    done;
    loads.(!min_idx) <- loads.(!min_idx) + item
  in
  List.iter place (List.sort (fun a b -> Int.compare b a) items);
  loads

(* Distribute [cells] unit cells over [bins] bins already carrying the
   LPT scan partition; unit cells go to the shortest bin, which for
   units is equivalent to spreading the excess evenly.  We compute
   exactly by running LPT with the scan chains followed by unit
   cells. *)
let side_loads ~bins ~scan_chains ~cells =
  let units = List.init cells (fun _ -> 1) in
  (* LPT sorts by size, so scan chains are placed before unit cells;
     appending keeps the computation a single LPT run. *)
  lpt_loads ~bins (scan_chains @ units)

(* The longest chain of {!side_loads}, from the scan partition's loads
   sorted ascending, without placing the unit cells one at a time.  The
   partition is [zeros] empty bins below the loads in [sorted].  Placing
   each unit on a shortest bin fills the bins like water: the final
   level is the least [h] with [sum_i max 0 (h - load_i) >= cells], and
   no bin already above it receives a cell.  The level over the [k]
   lowest bins is [ceil ((cells + sum of those k) / k)]; it is final as
   soon as it does not rise above the next bin.  Below [k = zeros] that
   only happens for [cells = 0], where [k = zeros] gives the same
   level 0, so the search starts there. *)
let side_length ~zeros sorted ~cells =
  let bins = zeros + Array.length sorted in
  let load i = if i < zeros then 0 else sorted.(i - zeros) in
  let rec level k sum =
    let sum = sum + load (k - 1) in
    let h = (cells + sum + k - 1) / k in
    if k = bins || h <= load k then h else level (k + 1) sum
  in
  max (load (bins - 1)) (level (max 1 zeros) 0)

let of_partition ~width ~zeros sorted (m : Module_def.t) =
  (* Both sides share the scan partition. *)
  {
    width;
    scan_in_max = side_length ~zeros sorted ~cells:(m.inputs + m.bidirs);
    scan_out_max = side_length ~zeros sorted ~cells:(m.outputs + m.bidirs);
  }

let design ~width (m : Module_def.t) =
  if width < 1 then invalid_arg "Wrapper.design: width must be >= 1";
  let n = List.length m.scan_chains in
  if n <= width then begin
    (* LPT puts each chain, longest first, on an empty bin: the first
       shortest bin is empty while fewer than [width] chains are
       placed.  The sorted loads are [width - n] zeros, then the chains
       ascending. *)
    let chains = Array.of_list m.scan_chains in
    Array.sort Int.compare chains;
    of_partition ~width ~zeros:(width - n) chains m
  end
  else begin
    let sorted = lpt_loads ~bins:width m.scan_chains in
    Array.sort Int.compare sorted;
    of_partition ~width ~zeros:0 sorted m
  end

type layout = { in_lengths : int list; out_lengths : int list }

let layout ~width (m : Module_def.t) =
  if width < 1 then invalid_arg "Wrapper.layout: width must be >= 1";
  {
    in_lengths =
      Array.to_list
        (side_loads ~bins:width ~scan_chains:m.scan_chains
           ~cells:(m.inputs + m.bidirs));
    out_lengths =
      Array.to_list
        (side_loads ~bins:width ~scan_chains:m.scan_chains
           ~cells:(m.outputs + m.bidirs));
  }

let pattern_cycles w = max w.scan_in_max w.scan_out_max + 1

let test_cycles w ~patterns =
  if patterns < 0 then invalid_arg "Wrapper.test_cycles: negative patterns";
  ((1 + max w.scan_in_max w.scan_out_max) * patterns)
  + min w.scan_in_max w.scan_out_max

let equal a b =
  a.width = b.width && a.scan_in_max = b.scan_in_max
  && a.scan_out_max = b.scan_out_max

let pp ppf w =
  Fmt.pf ppf "@[<h>wrapper(width %d, si %d, so %d)@]" w.width w.scan_in_max
    w.scan_out_max
