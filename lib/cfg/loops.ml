module Int_set = Set.Make (Int)

type loop = { header : int; body : Int_set.t }

let back_edges g dom =
  let edges = ref [] in
  for u = 0 to Cfg.num_blocks g - 1 do
    List.iter
      (fun v -> if Dom.dominates dom v u then edges := (u, v) :: !edges)
      (Cfg.succs g u)
  done;
  List.rev !edges

(* [(m, {0, 1, ..., m - 1})]: the shapes body sets are mapped from.  It
   only grows, to twice the largest body asked for. *)
let naturals = ref (0, Int_set.empty)

(* The set of the [k] elements of [sorted] (ascending, distinct).
   [Int_set.of_list] would sort a list of them, allocating about k log k
   cells.  Instead the first [k] naturals are split off [naturals] and
   mapped in increasing order onto the elements: the map is monotone, so
   it keeps the split's balanced shape and allocates one node per
   element. *)
let of_sorted sorted =
  let k = Array.length sorted in
  let m, set = !naturals in
  let set =
    if k <= m then set
    else begin
      let set = Int_set.of_list (List.init (2 * k) Fun.id) in
      naturals := (2 * k, set);
      set
    end
  in
  let shape, _, _ = Int_set.split k set in
  let i = ref (-1) in
  Int_set.map
    (fun _ ->
      incr i;
      sorted.(!i))
    shape

(* The natural loop of header v: v plus all blocks that reach one of its
   back-edge sources without passing through v — one search over the
   merged loop, marking blocks in [claimed] with the header that took
   them.  The body is then read off the marks in ascending order between
   the lowest and highest block reached: a loop's blocks lie close
   together in the layout, and this is cheaper than sorting them. *)
let natural_loops g dom =
  let n = Cfg.num_blocks g in
  let sources = Array.make n [] in
  List.iter (fun (u, v) -> sources.(v) <- u :: sources.(v)) (back_edges g dom);
  let claimed = Array.make n (-1) in
  let loops = ref [] in
  for v = n - 1 downto 0 do
    if sources.(v) <> [] then begin
      claimed.(v) <- v;
      let k = ref 1 and lo = ref v and hi = ref v in
      let rec visit x =
        if claimed.(x) <> v then begin
          claimed.(x) <- v;
          incr k;
          if x < !lo then lo := x;
          if x > !hi then hi := x;
          List.iter visit (Cfg.preds g x)
        end
      in
      List.iter visit sources.(v);
      let sorted = Array.make !k 0 and j = ref 0 in
      for x = !lo to !hi do
        if claimed.(x) = v then begin
          sorted.(!j) <- x;
          incr j
        end
      done;
      loops := { header = v; body = of_sorted sorted } :: !loops
    end
  done;
  !loops

let innermost_first loops =
  List.sort
    (fun a b -> Int.compare (Int_set.cardinal a.body) (Int_set.cardinal b.body))
    loops

(* Only loops around the edited one gain blocks: the stub lies on a back
   edge of [loop], and the preheader on the entry edges of every loop
   that strictly contains it. *)
let insert_preheader loops ~loop ~added =
  let h = loop.header in
  let shift i = if i >= h then i + added else i in
  let stub body = if added = 2 then Int_set.add h body else body in
  List.map
    (fun l ->
      let body = Int_set.map shift l.body in
      let body =
        if l.header = h then stub body
        else if Int_set.mem h l.body then
          Int_set.add (h + added - 1) (stub body)
        else body
      in
      { header = shift l.header; body })
    loops
  |> List.sort (fun a b -> Int.compare a.header b.header)
  |> innermost_first

(* A depth-first search from the entry, failing on an edge into a block
   on the stack that does not dominate its source.  A dominating target
   is always on the stack, so only those edges need the dominance
   query. *)
let is_reducible g dom =
  let color = Bytes.make (Cfg.num_blocks g) '\000' in
  let rec visit u =
    Bytes.set color u '\001';
    let ok =
      List.for_all
        (fun v ->
          match Bytes.get color v with
          | '\001' -> Dom.dominates dom v u
          | '\000' -> visit v
          | _ -> true)
        (Cfg.succs g u)
    in
    Bytes.set color u '\002';
    ok
  in
  visit 0

(* Hecht and Ullman: a flow graph is reducible iff every retreating edge
   of a depth-first search ends in a dominator of its source. *)
let region_reducible dom (region : Dom.region) =
  List.for_all (fun (u, v) -> Dom.dominates dom v u) region.retreating

let enclosing_loop loops i =
  List.fold_left
    (fun acc l ->
      if Int_set.mem i l.body then
        match acc with
        | None -> Some l
        | Some best ->
          if Int_set.cardinal l.body < Int_set.cardinal best.body then Some l
          else acc
      else acc)
    None loops

let exit_edges g l =
  Int_set.fold
    (fun u acc ->
      List.fold_left
        (fun acc v -> if Int_set.mem v l.body then acc else (u, v) :: acc)
        acc (Cfg.succs g u))
    l.body []
  |> List.rev
