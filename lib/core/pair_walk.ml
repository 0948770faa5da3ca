(* Entry x is the pair [pair.(x) = source * n + sink] with duration
   [dur.(x)], sorted by (duration, pair). *)
type t = { n : int; dur : int array; pair : int array }

(* In-place heap sort of an int array, allocation-free: [Array.sort]
   raises an exception per sift and [Array.stable_sort] allocates merge
   buffers, 8k–12k minor words over the rows of one lookahead run of
   p93791_leon at reuse 8, which takes ~31k with this sort. *)
let sort (a : int array) =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c len
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

(* Pairs are packed as [duration * n² + pair] and sorted as plain
   ints. *)
let create ~n duration =
  let nn = n * n in
  let count = ref 0 in
  for src = 0 to n - 1 do
    for snk = 0 to n - 1 do
      if duration ~src ~snk >= 0 then incr count
    done
  done;
  let keys = Array.make !count 0 in
  let limit = if nn = 0 then max_int else (max_int / nn) - 1 in
  let x = ref 0 in
  for src = 0 to n - 1 do
    for snk = 0 to n - 1 do
      let d = duration ~src ~snk in
      if d >= 0 then begin
        if d > limit then invalid_arg "Pair_walk.create: duration too large";
        keys.(!x) <- (d * nn) + (src * n) + snk;
        incr x
      end
    done
  done;
  sort keys;
  let dur = Array.map (fun k -> k / nn) keys in
  Array.iteri (fun x k -> keys.(x) <- k - (dur.(x) * nn)) keys;
  { n; dur; pair = keys }

let walk t ~now ~avail offer =
  let len = Array.length t.dur in
  (* The best busy pair seen so far, as (key, pair). *)
  let best = ref max_int and best_pair = ref max_int in
  let stop = ref false and x = ref 0 in
  while (not !stop) && !x < len do
    let d = t.dur.(!x) and p = t.pair.(!x) in
    incr x;
    if now + d > !best then stop := true
    else begin
      let i = p / t.n in
      let j = p - (i * t.n) in
      let ai = avail.(i) and aj = avail.(j) in
      if ai >= 0 && aj >= 0 then begin
        let ready = Int.max ai aj in
        if ready > now then begin
          let key = ready + d in
          if key < !best || (key = !best && p < !best_pair) then begin
            best := key;
            best_pair := p
          end
        end
        else if now + d = !best && p > !best_pair then stop := true
        else if offer i j then stop := true
      end
    end
  done;
  !x
