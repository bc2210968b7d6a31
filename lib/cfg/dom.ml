type t = { idom : int array; depth : int array; reach : bool array }

(* Cooper, Harvey and Kennedy's iteration over the blocks reachable from
   [root] through blocks that [inside] accepts, whose entries in the
   arrays are unset (-1, false) except [root]'s: a depth-first search,
   then passes in its reverse postorder.  One pass settles every block
   from its predecessors earlier in the order.  When each retreating
   edge of the search then ends in a dominator of its source, the later
   predecessors change nothing and that pass is final.  Returns the
   retreating edges. *)
let solve g idom depth reach ~root ~inside =
  let n = Cfg.num_blocks g in
  (* '\000' unvisited, '\001' on the stack, '\002' done *)
  let state = Bytes.make n '\000' in
  let rpo = ref [] and retreating = ref [] in
  let rec visit j =
    Bytes.set state j '\001';
    edges j (Cfg.succs g j);
    Bytes.set state j '\002';
    rpo := j :: !rpo
  and edges j = function
    | [] -> ()
    | s :: rest ->
      (if inside s then
         match Bytes.get state s with
         | '\000' -> visit s
         | '\001' -> retreating := (j, s) :: !retreating
         | _ -> ());
      edges j rest
  in
  visit root;
  let rpo = Array.of_list !rpo in
  let num = Array.make n (-1) in
  Array.iteri (fun k j -> num.(j) <- k) rpo;
  let rec intersect a b =
    if a = b then a
    else if num.(a) > num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let rec meet acc = function
    | [] -> acc
    | p :: rest ->
      meet
        (if num.(p) < 0 || idom.(p) = -1 then acc
         else if acc < 0 then p
         else intersect acc p)
        rest
  in
  let pass () =
    let changed = ref false in
    for k = 1 to Array.length rpo - 1 do
      let b = rpo.(k) in
      let d = meet (-1) (Cfg.preds g b) in
      if d >= 0 && idom.(b) <> d then begin
        idom.(b) <- d;
        changed := true
      end
    done;
    !changed
  in
  ignore (pass ());
  let rec dominated_by v u =
    u = v || (num.(u) > num.(v) && dominated_by v idom.(u))
  in
  if not (List.for_all (fun (u, v) -> dominated_by v u) !retreating) then
    while pass () do
      ()
    done;
  for k = 1 to Array.length rpo - 1 do
    let b = rpo.(k) in
    reach.(b) <- true;
    depth.(b) <- depth.(idom.(b)) + 1
  done;
  !retreating

let compute g =
  let n = Cfg.num_blocks g in
  let idom = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let reach = Array.make n false in
  if n > 0 then begin
    idom.(0) <- 0;
    depth.(0) <- 0;
    reach.(0) <- true;
    ignore (solve g idom depth reach ~root:0 ~inside:(fun _ -> true))
  end;
  { idom; depth; reach }

let idom t b =
  if b = 0 || (not t.reach.(b)) || t.idom.(b) = -1 then None
  else Some t.idom.(b)

let dominates t a b =
  if a = b then true
  else if (not t.reach.(a)) || not t.reach.(b) then false
  else begin
    let rec climb x =
      if x = a then true
      else if x = 0 || t.depth.(x) <= t.depth.(a) then false
      else climb t.idom.(x)
    in
    climb b
  end

(* A preheader takes over the header's entry edges, so it inherits the
   header's immediate dominator and becomes the header's; the header's
   subtree moves one level down.  A stub hangs off block [header - 1]. *)
let insert_preheader t ~header ~added =
  let n = Array.length t.idom in
  let shift i = if i >= header then i + added else i in
  let pre = header + added - 1 in
  (* 0 unknown, 1 inside the header's dominator subtree, 2 outside *)
  let sub = Array.make n 0 in
  let rec in_sub b =
    if sub.(b) = 0 then
      sub.(b) <-
        (if b = header then 1
         else if b = 0 || t.depth.(b) <= t.depth.(header) then 2
         else if in_sub t.idom.(b) then 1
         else 2);
    sub.(b) = 1
  in
  let idom = Array.make (n + added) (-1) in
  let depth = Array.make (n + added) (-1) in
  let reach = Array.make (n + added) false in
  for b = 0 to n - 1 do
    let j = shift b in
    reach.(j) <- t.reach.(b);
    if t.reach.(b) then begin
      idom.(j) <- (if b = header then pre else shift t.idom.(b));
      depth.(j) <- (if in_sub b then t.depth.(b) + 1 else t.depth.(b))
    end
  done;
  if header = 0 then idom.(0) <- 0;
  reach.(pre) <- t.reach.(header);
  if t.reach.(header) then begin
    if header > 0 then idom.(pre) <- shift t.idom.(header);
    depth.(pre) <- t.depth.(header)
  end;
  if added = 2 && t.reach.(header - 1) then begin
    reach.(header) <- true;
    idom.(header) <- header - 1;
    depth.(header) <- t.depth.(header - 1) + 1
  end;
  { idom; depth; reach }

type region = { root : int; retreating : (int * int) list }

(* A replication splice (Replication.Replicate.splice) changes only
   edges out of block [after], out of the inserted copies and out of the
   [rewritten] blocks.  Let [r] be the nearest common dominator of the
   reachable old blocks at either end of those edges and of the blocks
   copied.  Paths into [r]'s subtree still enter it through [r] alone,
   and paths that leave it still leave through unchanged edges out of
   blocks that were not copied, so nothing outside the subtree changes
   and [r] keeps its dominators.  Only the subtree, plus the copies, is
   recomputed, with [r] as its entry. *)
let splice t g ~after ~copy_of ~rewritten =
  let n = Array.length t.idom in
  let added = Array.length copy_of in
  let shift i = if i > after then i + added else i in
  let is_copy j = j > after && j <= after + added in
  let unshift j = if j > after then j - added else j in
  let rec nca a b =
    if a = b then a
    else if t.depth.(a) >= t.depth.(b) then nca t.idom.(a) b
    else nca a t.idom.(b)
  in
  let root = ref (-1) in
  let note v =
    if t.reach.(v) then root := if !root < 0 then v else nca !root v
  in
  let note_edges j =
    List.iter
      (fun s -> if not (is_copy s) then note (unshift s))
      (Cfg.succs g j)
  in
  note after;
  Array.iter note copy_of;
  for j = after to after + added do
    note_edges j
  done;
  List.iter
    (fun j ->
      note (unshift j);
      note_edges j)
    rewritten;
  let idom = Array.make (n + added) (-1) in
  let depth = Array.make (n + added) (-1) in
  let reach = Array.make (n + added) false in
  for v = 0 to n - 1 do
    let j = shift v in
    reach.(j) <- t.reach.(v);
    if t.reach.(v) then begin
      idom.(j) <- shift t.idom.(v);
      depth.(j) <- t.depth.(v)
    end
  done;
  if !root < 0 then ({ idom; depth; reach }, None)
  else begin
    let r = !root in
    (* '\000' unknown, '\001' inside [r]'s old subtree, '\002' outside *)
    let sub = Bytes.make n '\000' in
    let rec in_sub v =
      if Bytes.get sub v = '\000' then
        Bytes.set sub v
          (if v = r then '\001'
           else if (not t.reach.(v)) || t.depth.(v) <= t.depth.(r) then '\002'
           else if in_sub t.idom.(v) then '\001'
           else '\002');
      Bytes.get sub v = '\001'
    in
    for v = 0 to n - 1 do
      if v <> r && in_sub v then begin
        let j = shift v in
        reach.(j) <- false;
        idom.(j) <- -1;
        depth.(j) <- -1
      end
    done;
    let r' = shift r in
    let retreating =
      solve g idom depth reach ~root:r' ~inside:(fun j ->
          is_copy j || in_sub (unshift j))
    in
    ({ idom; depth; reach }, Some { root = r'; retreating })
  end

let equal a b = a.idom = b.idom && a.depth = b.depth && a.reach = b.reach
