type t = { x : int; y : int }

let make ~x ~y =
  if x < 0 || y < 0 then invalid_arg "Coord.make: negative component";
  { x; y }

let manhattan a b = abs (a.x - b.x) + abs (a.y - b.y)
let equal a b = a.x = b.x && a.y = b.y

let compare a b =
  let c = Int.compare a.x b.x in
  if c <> 0 then c else Int.compare a.y b.y

let pp ppf c = Fmt.pf ppf "(%d,%d)" c.x c.y
