type t = { idom : int array; depth : int array; reach : bool array }

let compute g =
  let n = Cfg.num_blocks g in
  let rpo = Cfg.reverse_postorder g in
  let reach = Cfg.reachable g in
  let rpo_num = Array.make n (-1) in
  Array.iteri (fun pos b -> if reach.(b) then rpo_num.(b) <- pos) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref (n > 0) in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> 0 && reach.(b) then begin
          let processed p = reach.(p) && idom.(p) <> -1 in
          let new_idom =
            List.fold_left
              (fun acc p ->
                if not (processed p) then acc
                else match acc with None -> Some p | Some a -> Some (intersect a p))
              None (Cfg.preds g b)
          in
          match new_idom with
          | Some d when idom.(b) <> d ->
            idom.(b) <- d;
            changed := true
          | Some _ | None -> ()
        end)
      rpo
  done;
  (* Depth in the dominator tree, for O(depth) dominance queries. *)
  let depth = Array.make n (-1) in
  let rec depth_of b =
    if depth.(b) >= 0 then depth.(b)
    else if b = 0 then begin
      depth.(b) <- 0;
      0
    end
    else if idom.(b) = -1 then -1
    else begin
      let d = depth_of idom.(b) + 1 in
      depth.(b) <- d;
      d
    end
  in
  for b = 0 to n - 1 do
    if reach.(b) then ignore (depth_of b)
  done;
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

let equal a b = a.idom = b.idom && a.depth = b.depth && a.reach = b.reach
