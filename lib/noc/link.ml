module T = struct
  type t = Inject of Coord.t | Channel of Coord.t * Coord.t | Eject of Coord.t

  let compare a b =
    let tag = function Inject _ -> 0 | Channel _ -> 1 | Eject _ -> 2 in
    match (a, b) with
    | Inject ca, Inject cb | Eject ca, Eject cb -> Coord.compare ca cb
    | Channel (fa, ta), Channel (fb, tb) ->
        let c = Coord.compare fa fb in
        if c <> 0 then c else Coord.compare ta tb
    | (Inject _ | Channel _ | Eject _), _ -> Int.compare (tag a) (tag b)
end

include T

let channel from_ to_ =
  if Coord.equal from_ to_ then
    invalid_arg "Link.channel: endpoints must be distinct routers";
  Channel (from_, to_)

let routers = function
  | Inject c | Eject c -> [ c ]
  | Channel (a, b) -> [ a; b ]

let equal a b = compare a b = 0

let pp ppf = function
  | Inject c -> Fmt.pf ppf "inject%a" Coord.pp c
  | Eject c -> Fmt.pf ppf "eject%a" Coord.pp c
  | Channel (a, b) -> Fmt.pf ppf "%a->%a" Coord.pp a Coord.pp b

module Set = Set.Make (T)
module Map = Map.Make (T)
