(* The serve-mix generator is a pure function of its seed: the same
   seed gives byte-identical request lines and arrival gaps, another
   seed a different stream, and every line is a request the service
   parses. *)

open Perfbench

let stream seed n =
  let g = Gen.create ~seed in
  List.init n (fun _ ->
      let r = Gen.next g in
      (r.Gen.line, Gen.next_gap g ~rate:100.0))

let () =
  let n = 400 in
  let a = stream 7 n and b = stream 7 n and c = stream 8 n in
  if a <> b then failwith "same seed gave different request lines";
  if a = c then failwith "different seeds gave the same request lines";
  List.iter
    (fun (line, gap) ->
      if gap <= 0.0 then failwith "non-positive arrival gap";
      match Nocplan_serve.Protocol.parse_request line with
      | Ok _ -> ()
      | Error (_, msg) -> failwith (Printf.sprintf "unparsable line %s: %s" line msg))
    a;
  let g = Gen.create ~seed:7 in
  let reqs = List.init n (fun _ -> Gen.next g) in
  let share k = List.length (List.filter (fun r -> r.Gen.kind = k) reqs) in
  if share Gen.Hot = 0 || share Gen.Unique = 0 || share Gen.Inline = 0 then
    failwith "the mix lacks a request source";
  print_endline "test_gen: ok"
