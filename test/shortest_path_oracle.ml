(* The paper's O(n^3) Floyd–Warshall formulation of the shortest
   replication paths, replaced in [Replication.Shortest_path] by a lazy
   per-source Dijkstra.  Kept as the oracle for that solver: distances
   come from the full all-pairs table, and paths from an independent copy
   of the documented canonical reconstruction (lowest-numbered tight
   predecessor first), so tests compare block sequences, not only
   costs. *)

open Flow

type t = {
  sizes : int array;
  preds : int list array;  (** legal predecessors, ascending *)
  dist : int array array;
}

let inf = max_int / 4

let compute func g =
  let n = Cfg.num_blocks g in
  let sizes = Array.map Func.block_size (Func.blocks func) in
  (* Replication-legal edges: no self loops, nothing out of a block
     ending in an indirect jump. *)
  let edges =
    Array.init n (fun u ->
        match Func.terminator (Func.block func u) with
        | Some (Ir.Rtl.Ijump _) -> []
        | Some _ | None -> List.filter (fun v -> v <> u) (Cfg.succs g u))
  in
  let preds = Array.make n [] in
  for u = n - 1 downto 0 do
    List.iter (fun v -> preds.(v) <- u :: preds.(v)) edges.(u)
  done;
  let dist = Array.make_matrix n n inf in
  Array.iteri
    (fun u vs ->
      List.iter (fun v -> dist.(u).(v) <- min dist.(u).(v) sizes.(u)) vs)
    edges;
  for k = 0 to n - 1 do
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        let d = dist.(u).(k) + dist.(k).(v) in
        if d < dist.(u).(v) then dist.(u).(v) <- d
      done
    done
  done;
  { sizes; preds; dist }

(* Walk back from [dst] over tight predecessors ([d u + size u = d v]),
   lowest-numbered first, keeping the path simple and backtracking out of
   dead ends.  The source counts as distance 0 even when a cycle leads
   back to it; [dst] itself is excluded from the blocks. *)
let path t ~src ~dst : Replication.Shortest_path.path option =
  let d u = if u = src then 0 else t.dist.(src).(u) in
  if src = dst || d dst >= inf then None
  else begin
    let on_path = Array.make (Array.length t.sizes) false in
    on_path.(dst) <- true;
    let rec back v suffix =
      if v = src then Some (src :: suffix)
      else
        List.find_map
          (fun u ->
            if on_path.(u) || d u + t.sizes.(u) <> d v then None
            else begin
              on_path.(u) <- true;
              let found = back u (if v = dst then suffix else v :: suffix) in
              if Option.is_none found then on_path.(u) <- false;
              found
            end)
          t.preds.(v)
    in
    Option.map (fun blocks -> { Replication.Shortest_path.cost = d dst; blocks })
      (back dst [])
  end
