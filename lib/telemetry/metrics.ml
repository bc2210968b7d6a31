(* Typed metrics registry: named counters and fixed-bucket histograms.

   A registry is single-process mutable state.  A parallel sweep gives
   every task its own shard (a worker process ships it back as
   [to_json], read with [of_json]) and the parent folds the shards back
   with [merge] in task order — the merged registry is then byte-for-byte the
   one a sequential run would have produced (counters and histograms are
   commutative sums). *)

type histogram = {
  edges : float array;  (* strictly increasing upper bounds; +inf implicit *)
  counts : int array;  (* length = Array.length edges + 1 *)
  mutable sum : float;
  mutable n : int;
}

type metric =
  | Counter of int ref
  | Histogram of histogram

type t = { on : bool; tbl : (string, metric) Hashtbl.t }

let create () = { on = true; tbl = Hashtbl.create 32 }
let null = { on = false; tbl = Hashtbl.create 1 }
let enabled t = t.on

let clash name =
  invalid_arg (Printf.sprintf "Metrics: %s already registered with another type" name)

(* --- standard bucket layouts --- *)

module Buckets = struct
  let time_ms =
    [| 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0; 3000.0 |]

  let pow2 ~lo ~hi =
    if lo > hi then invalid_arg "Metrics.Buckets.pow2: lo > hi";
    Array.init (hi - lo + 1) (fun i -> float_of_int (1 lsl (lo + i)))

  (* Executed-instruction counts: 256 .. 64M, doubling. *)
  let instrs = pow2 ~lo:8 ~hi:26
end

(* First bucket whose upper bound admits [v] ([v <= edges.(i)]); the
   overflow bucket is [Array.length edges]. *)
let bucket_index edges v =
  let n = Array.length edges in
  let rec go lo hi =
    (* invariant: every i < lo has edges.(i) < v; answer is in [lo, hi] *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= edges.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

(* --- registration and updates (no-ops on a disabled registry) --- *)

let add t name delta =
  if t.on then
    match Hashtbl.find_opt t.tbl name with
    | Some (Counter r) -> r := !r + delta
    | Some _ -> clash name
    | None -> Hashtbl.add t.tbl name (Counter (ref delta))

let incr t name = add t name 1

let observe t name ~buckets v =
  if t.on then
    let h =
      match Hashtbl.find_opt t.tbl name with
      | Some (Histogram h) -> h
      | Some _ -> clash name
      | None ->
        let h =
          {
            edges = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            sum = 0.0;
            n = 0;
          }
        in
        Hashtbl.add t.tbl name (Histogram h);
        h
    in
    let i = bucket_index h.edges v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. v;
    h.n <- h.n + 1

(* --- reading --- *)

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with Some (Counter r) -> !r | _ -> 0

let counters t =
  Hashtbl.fold
    (fun k v acc -> match v with Counter r -> (k, !r) :: acc | _ -> acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type view =
  | VCounter of int
  | VHistogram of { edges : float array; counts : int array; sum : float; count : int }

let snapshot t =
  Hashtbl.fold
    (fun k v acc ->
      let view =
        match v with
        | Counter r -> VCounter !r
        | Histogram h ->
          VHistogram
            {
              edges = Array.copy h.edges;
              counts = Array.copy h.counts;
              sum = h.sum;
              count = h.n;
            }
      in
      (k, view) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- deterministic shard merge --- *)

let merge ~into src =
  if into.on then
    List.iter
      (fun (name, view) ->
        match view with
        | VCounter n -> add into name n
        | VHistogram { edges; counts; sum; count } -> (
          match Hashtbl.find_opt into.tbl name with
          | Some (Histogram h) ->
            if h.edges <> edges then
              invalid_arg
                (Printf.sprintf "Metrics.merge: %s bucket layouts differ" name);
            Array.iteri (fun i c -> h.counts.(i) <- h.counts.(i) + c) counts;
            h.sum <- h.sum +. sum;
            h.n <- h.n + count
          | Some _ -> clash name
          | None ->
            Hashtbl.add into.tbl name
              (Histogram { edges; counts = Array.copy counts; sum; n = count })))
      (snapshot src)

(* --- JSON snapshot --- *)

let view_to_json = function
  | VCounter n -> Json.Int n
  | VHistogram { edges; counts; sum; count } ->
    Json.Obj
      [
        ("type", Json.Str "histogram");
        ("edges", Json.Arr (Array.to_list (Array.map (fun e -> Json.Float e) edges)));
        ("counts", Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) counts)));
        ("sum", Json.Fixed (6, sum));
        ("count", Json.Int count);
      ]

let to_json t =
  Json.Obj (List.map (fun (name, view) -> (name, view_to_json view)) (snapshot t))

(* The inverse of [to_json]: how a worker process's registry crosses the
   pipe to be [merge]d into the parent's. *)
let of_json j =
  let t = create () in
  let get k h of_json = Option.bind (Json.member k h) of_json in
  let floats h k =
    Option.value ~default:[] (get k h Json.to_list)
    |> List.filter_map Json.get_float |> Array.of_list
  in
  (match j with
  | Json.Obj fields ->
    List.iter
      (fun (name, v) ->
        match (v, get "count" v Json.get_int) with
        | Json.Int n, _ -> add t name n
        | h, Some n ->
          let sum = Option.value ~default:0. (get "sum" h Json.get_float) in
          let counts = Array.map int_of_float (floats h "counts") in
          Hashtbl.replace t.tbl name
            (Histogram { edges = floats h "edges"; counts; sum; n })
        | _ -> ())
      fields
  | _ -> ());
  t
