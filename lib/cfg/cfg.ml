open Ir

type t = { succ : int list array; pred : int list array }

let succ_indices f i =
  match Func.terminator (Func.block f i) with
  | None -> if i + 1 < Func.num_blocks f then [ i + 1 ] else []
  | Some t ->
    (* Dedup while keeping the fall-through first; [acc] is reversed. *)
    let rec add acc = function
      | [] -> List.rev acc
      | l :: rest ->
        let s = Func.index_of_label f l in
        if List.exists (Int.equal s) acc then add acc rest
        else add (s :: acc) rest
    in
    let fall =
      match t with
      | Rtl.Jump _ | Rtl.Ijump _ | Rtl.Ret -> false
      | _ -> i + 1 < Func.num_blocks f
    in
    add (if fall then [ i + 1 ] else []) (Rtl.targets t)

let build f =
  let n = Func.num_blocks f in
  let succ = Array.init n (succ_indices f) in
  (* Sources in ascending order: prepend while walking them downward. *)
  let pred = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun s -> pred.(s) <- i :: pred.(s)) succ.(i)
  done;
  { succ; pred }

(* Passes of one fix-loop round mostly see the version the previous pass
   handed on, and a no-change pass hands on its input, so most calls ask
   again about the version last asked about.  More entries pin more
   graphs for no more hits. *)
let cache : (Func.t, t) Analysis.Cache.t = Analysis.Cache.create ~size:2 ()
let make f = Analysis.Cache.find cache f build

let num_blocks g = Array.length g.succ
let succs g i = g.succ.(i)
let preds g i = g.pred.(i)

(* Only the inserted blocks, the block falling into them and the blocks
   that jumped to the header can have new successors, and only the
   header and the inserted blocks new predecessors; every other list
   keeps its order under the index shift (and is shared when no index in
   it moves). *)
let insert_preheader g f ~header ~added =
  let n = num_blocks g in
  let shift i = if i >= header then i + added else i in
  let shift_list l =
    if List.for_all (fun i -> i < header) l then l else List.map shift l
  in
  let redo = Array.make n false in
  List.iter (fun p -> redo.(p) <- true) g.pred.(header);
  if header > 0 then redo.(header - 1) <- true;
  let succ = Array.make (n + added) [] in
  let pred = Array.make (n + added) [] in
  for i = 0 to n - 1 do
    let j = shift i in
    succ.(j) <- (if redo.(i) then succ_indices f j else shift_list g.succ.(i));
    if i <> header then pred.(j) <- shift_list g.pred.(i)
  done;
  let inserted = List.init added (fun k -> header + k) in
  List.iter (fun j -> succ.(j) <- succ_indices f j) inserted;
  (* Edges into the inserted blocks and the header come from the old
     predecessors of the header and from the inserted blocks, in index
     order. *)
  let sources =
    let before, after = List.partition (fun p -> p < header) g.pred.(header) in
    before @ inserted @ List.map shift after
  in
  List.iter
    (fun t -> pred.(t) <- List.filter (fun p -> List.mem t succ.(p)) sources)
    (inserted @ [ header + added ]);
  { succ; pred }

(* A replication splice changes the transfers of the block that lost
   its jump, of the inserted blocks and of the rewritten ones, so only
   they have new successors, and only their old and new successors new
   predecessors; every other list keeps its order under the index shift
   (and is shared when no index in it moves). *)
let splice g f ~after ~added ~rewritten =
  let n = num_blocks g in
  let n' = n + added in
  let shift i = if i > after then i + added else i in
  let shift_list l =
    if List.for_all (fun i -> i <= after) l then l else List.map shift l
  in
  let redone = List.init (added + 1) (fun k -> after + k) @ rewritten in
  let redo = Bytes.make n' '\000' in
  List.iter (fun j -> Bytes.set redo j '\001') redone;
  let is_redone j = Bytes.get redo j = '\001' in
  let succ = Array.make n' [] in
  let pred = Array.make n' [] in
  let touched = ref [] in
  for i = 0 to n - 1 do
    let j = shift i in
    if is_redone j then
      touched := List.rev_append (shift_list g.succ.(i)) !touched
    else succ.(j) <- shift_list g.succ.(i);
    pred.(j) <- shift_list g.pred.(i)
  done;
  List.iter
    (fun j ->
      succ.(j) <- succ_indices f j;
      touched := List.rev_append succ.(j) !touched)
    redone;
  (* A touched block keeps its predecessors that were not redone and
     gains the redone ones that now reach it, in ascending order. *)
  let redone = List.sort Int.compare redone in
  List.iter
    (fun t ->
      let kept = List.filter (fun u -> not (is_redone u)) pred.(t) in
      let gained =
        List.filter (fun u -> List.exists (Int.equal t) succ.(u)) redone
      in
      pred.(t) <- List.merge Int.compare kept gained)
    (List.sort_uniq Int.compare !touched);
  { succ; pred }

let reachable g =
  let n = num_blocks g in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit g.succ.(i)
    end
  in
  if n > 0 then visit 0;
  seen

let reverse_postorder g =
  let n = num_blocks g in
  let seen = Array.make n false in
  (* Reachable blocks fill [order] from the back as they finish; the
     unreachable ones follow in index order. *)
  let order = Array.make n 0 in
  let rec visit next i =
    if seen.(i) then next
    else begin
      seen.(i) <- true;
      let next = List.fold_left visit next g.succ.(i) in
      order.(next) <- i;
      next - 1
    end
  in
  let last = if n > 0 then visit (n - 1) 0 else -1 in
  let reached = n - 1 - last in
  if reached < n then begin
    Array.blit order (last + 1) order 0 reached;
    let k = ref reached in
    for i = 0 to n - 1 do
      if not seen.(i) then begin
        order.(!k) <- i;
        incr k
      end
    done
  end;
  order

let graph g =
  {
    Analysis.Dataflow.nodes = num_blocks g;
    succs = succs g;
    preds = preds g;
    rpo = reverse_postorder g;
  }
