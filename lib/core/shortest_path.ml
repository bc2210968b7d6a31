open Flow

type path = { cost : int; blocks : int list }

let inf = max_int / 4

(* The graph data the solver works over: the CFG, block sizes and
   which blocks paths may leave.  Replication-legal edges are the CFG's
   without self loops and without those out of indirect jumps; the
   CFG's predecessor lists are in ascending block order. *)
type geometry = { g : Cfg.t; sizes : int array; through : bool array }

let iter_edges geo u f =
  if geo.through.(u) then
    List.iter (fun v -> if v <> u then f v) (Cfg.succs geo.g u)

let through_block b =
  match Func.terminator b with
  | Some (Ir.Rtl.Ijump _) -> false
  | Some _ | None -> true

(* Canonical path reconstruction from a distance array ([dist u] = cost
   from the source up to but excluding [u]; the source itself counts as
   distance 0 even when a cycle leads back to it).  Walking backward
   from [dst], follow the lowest-numbered "tight" predecessor
   ([dist u + size u = dist v]) that keeps the path simple.  Every edge
   of a shortest path is tight, so a simple tight chain back to the
   source always exists; the backtracking only ever engages in the
   zero-size-block corner case where the greedy choice can close a
   zero-cost cycle and dead-end. *)
let reconstruct geo dist ~src ~dst =
  let d u = if u = src then 0 else dist u in
  if src = dst || d dst >= inf then None
  else begin
    let on_path = Array.make (Array.length geo.sizes) false in
    on_path.(dst) <- true;
    (* [suffix] holds the canonical blocks strictly after [v] (with
       [dst] itself excluded, as the paper's cost convention demands). *)
    let rec back v suffix =
      if v = src then Some (src :: suffix)
      else
        let dv = d v in
        let rec try_preds = function
          | [] -> None
          | u :: rest ->
            if
              geo.through.(u) && u <> v && (not on_path.(u))
              && d u + geo.sizes.(u) = dv
            then begin
              on_path.(u) <- true;
              match back u (if v = dst then suffix else v :: suffix) with
              | Some _ as found -> found
              | None ->
                on_path.(u) <- false;
                try_preds rest
            end
            else try_preds rest
        in
        try_preds (Cfg.preds geo.g v)
    in
    match back dst [] with
    | None -> None
    | Some blocks -> Some { cost = d dst; blocks }
  end

(* Dijkstra over the node-weighted graph: entering [v] from [u] costs
   [size u], so [dist v] = RTLs of the blocks from the source up to but
   excluding [v].  The priority queue is a binary heap of
   [d * n + node] keys — pops are by (distance, block index), wholly
   deterministic, and nothing allocates per relaxation. *)
let dijkstra geo ~src =
  let n = Array.length geo.sizes in
  let dist = Array.make n inf in
  dist.(src) <- 0;
  let heap = ref (Array.make 64 0) in
  let len = ref 0 in
  let push key =
    if !len = Array.length !heap then begin
      let bigger = Array.make (2 * !len) 0 in
      Array.blit !heap 0 bigger 0 !len;
      heap := bigger
    end;
    let h = !heap in
    let i = ref !len in
    incr len;
    h.(!i) <- key;
    while !i > 0 && h.((!i - 1) / 2) > h.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.(p) in
      h.(p) <- h.(!i);
      h.(!i) <- tmp;
      i := p
    done
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr len;
    h.(0) <- h.(!len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < !len && h.(l) < h.(!smallest) then smallest := l;
      if r < !len && h.(r) < h.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.(!smallest) in
        h.(!smallest) <- h.(!i);
        h.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
  in
  push src (* d = 0 *);
  while !len > 0 do
    let key = pop () in
    let d = key / n and u = key mod n in
    if d <= dist.(u) then begin
      let nd = d + geo.sizes.(u) in
      iter_edges geo u (fun v ->
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            push ((nd * n) + v)
          end)
    end
  done;
  dist

(* Geometry once, one Dijkstra per queried source, memoized.  Sources
   are exactly the jump targets the JUMPS pass asks about, so unqueried
   blocks cost nothing — the paper's O(n³) Warshall table survives only
   as the test suite's oracle. *)
type t = { geo : geometry; cache : (int, int array) Hashtbl.t }

let create func g =
  let blocks = Func.blocks func in
  {
    geo =
      {
        g;
        sizes = Array.map Func.block_size blocks;
        through = Array.map through_block blocks;
      };
    cache = Hashtbl.create 16;
  }

(* Only block [after] and the inserted ones changed size or terminator;
   the edges follow the edited graph. *)
let splice t func g ~after ~added =
  let shifted old fresh =
    Array.init (Cfg.num_blocks g) (fun j ->
        if j < after then old.(j)
        else if j > after + added then old.(j - added)
        else fresh (Func.block func j))
  in
  let sizes = shifted t.geo.sizes Func.block_size in
  let through = shifted t.geo.through through_block in
  { geo = { g; sizes; through }; cache = Hashtbl.create 16 }

let distances t src =
  match Hashtbl.find_opt t.cache src with
  | Some dist -> dist
  | None ->
    let dist = dijkstra t.geo ~src in
    Hashtbl.add t.cache src dist;
    dist

let path t ~src ~dst =
  let dist = distances t src in
  reconstruct t.geo (fun u -> dist.(u)) ~src ~dst

let distance t ~src ~dst =
  let d = (distances t src).(dst) in
  if src = dst || d >= inf then None else Some d
