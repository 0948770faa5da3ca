module Coord = Nocplan_noc.Coord
module Soc = Nocplan_itc02.Soc
module Module_def = Nocplan_itc02.Module_def

let resource_tiles system ~reuse =
  List.map (Resource.coord system) (Resource.all_endpoints system ~reuse)

let nearest system tiles id =
  let tile = System.coord_of_module system id in
  let topology = system.System.topology in
  List.fold_left
    (fun acc c -> min acc (Nocplan_noc.Topology.distance topology tile c))
    max_int tiles

let distance_to_nearest_resource system ~reuse id =
  nearest system (resource_tiles system ~reuse) id

let order system ~reuse =
  let tiles = resource_tiles system ~reuse in
  let key id =
    let m = Soc.find system.System.soc id in
    ( nearest system tiles id,
      -Module_def.test_bits m,
      id )
  in
  System.module_ids system
  |> List.map (fun id -> (key id, id))
  |> List.sort (fun ((da, ba, ia), _) ((db, bb, ib), _) ->
         let c = Int.compare da db in
         if c <> 0 then c
         else
           let c = Int.compare ba bb in
           if c <> 0 then c else Int.compare ia ib)
  |> List.map snd
