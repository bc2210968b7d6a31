(* [Cfg.make] as it was written before its constant factors were cut:
   the terminator found through [List.rev], successors deduplicated with
   polymorphic [List.mem] and [@], predecessors reversed at the end.
   The tests hold [Cfg.make] to it over every function of the corpus and
   of Gen seeds 0-39. *)

open Ir
open Flow

let terminator (b : Func.block) =
  match List.rev b.instrs with
  | last :: _ when Rtl.is_transfer last -> Some last
  | _ -> None

let falls_through b =
  match terminator b with
  | Some (Rtl.Jump _ | Rtl.Ijump _ | Rtl.Ret) -> false
  | Some (Rtl.Branch _) | Some _ | None -> true

let succ_indices f i =
  let b = Func.block f i in
  let n = Func.num_blocks f in
  let fall = if falls_through b && i + 1 < n then [ i + 1 ] else [] in
  let explicit =
    match terminator b with
    | Some t -> List.map (Func.index_of_label f) (Rtl.targets t)
    | None -> []
  in
  List.fold_left
    (fun acc s -> if List.mem s acc then acc else acc @ [ s ])
    fall explicit

(* Successor and predecessor lists of every block. *)
let make f =
  let n = Func.num_blocks f in
  let succ = Array.init n (succ_indices f) in
  let pred = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> pred.(s) <- i :: pred.(s)) ss)
    succ;
  Array.iteri (fun i ps -> pred.(i) <- List.rev ps) pred;
  (succ, pred)
