(* Per-pass profiler.

   One attribution table, (function x pass) -> {calls, runs, changed,
   wall, alloc}, fed by the Opt.Driver pass boundary.  A profiler is
   single-process state: each task profiles into a private
   shard that the parent folds back with [merge] in task order.
   Wall-clock and allocation numbers are nondeterministic by nature; the
   deterministic parts (call, run and change counts) are what the
   determinism tests pin down. *)

type pass_stat = {
  mutable calls : int;  (* presentations, memo replays included *)
  mutable runs : int;  (* presentations that ran the pass *)
  mutable changed : int;  (* runs that reported a change *)
  mutable wall_ms : float;
  mutable alloc_words : float;
}

type t = {
  on : bool;
  passes : (string * string, pass_stat) Hashtbl.t;  (* (func, pass) *)
}

let create () = { on = true; passes = Hashtbl.create 64 }
let null = { on = false; passes = Hashtbl.create 1 }
let enabled t = t.on

(* Words allocated by this process so far; sample before/after a region
   and subtract.  Promoted words would otherwise be counted twice. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let add_pass tbl key ~calls ~runs ~changed ~wall_ms ~alloc =
  match Hashtbl.find_opt tbl key with
  | Some s ->
    s.calls <- s.calls + calls;
    s.runs <- s.runs + runs;
    s.changed <- s.changed + changed;
    s.wall_ms <- s.wall_ms +. wall_ms;
    s.alloc_words <- s.alloc_words +. alloc
  | None ->
    Hashtbl.add tbl key { calls; runs; changed; wall_ms; alloc_words = alloc }

let record_pass t ~func ~pass ~ran ~changed ~wall_ms ~alloc =
  if t.on then
    add_pass t.passes (func, pass) ~calls:1
      ~runs:(Bool.to_int ran)
      ~changed:(Bool.to_int changed)
      ~wall_ms ~alloc

let merge ~into src =
  if into.on then
    (* Sort for determinism of table iteration order downstream. *)
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) src.passes []
    |> List.sort compare
    |> List.iter (fun (key, (s : pass_stat)) ->
           add_pass into.passes key ~calls:s.calls ~runs:s.runs
             ~changed:s.changed ~wall_ms:s.wall_ms ~alloc:s.alloc_words)

(* --- reading --- *)

type pass_row = {
  p_func : string;
  p_pass : string;
  p_calls : int;
  p_runs : int;
  p_changed : int;
  p_wall_ms : float;
  p_alloc_words : float;
}

let row_order a b =
  match compare b.p_wall_ms a.p_wall_ms with
  | 0 -> compare (a.p_func, a.p_pass) (b.p_func, b.p_pass)
  | c -> c

(* All (function x pass) rows, hottest (by wall time) first. *)
let row p_func p_pass (s : pass_stat) =
  {
    p_func;
    p_pass;
    p_calls = s.calls;
    p_runs = s.runs;
    p_changed = s.changed;
    p_wall_ms = s.wall_ms;
    p_alloc_words = s.alloc_words;
  }

let pass_rows t =
  Hashtbl.fold (fun (func, pass) s acc -> row func pass s :: acc) t.passes []
  |> List.sort row_order

(* Rows aggregated over functions: one row per pass name. *)
let by_pass t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, pass) (s : pass_stat) ->
      add_pass tbl pass ~calls:s.calls ~runs:s.runs ~changed:s.changed
        ~wall_ms:s.wall_ms ~alloc:s.alloc_words)
    t.passes;
  Hashtbl.fold (fun pass s acc -> row "" pass s :: acc) tbl []
  |> List.sort row_order

(* --- rendering --- *)

let to_json t =
  Json.Obj
    [
      ( "passes",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("func", Json.Str r.p_func);
                   ("pass", Json.Str r.p_pass);
                   ("calls", Json.Int r.p_calls);
                   ("runs", Json.Int r.p_runs);
                   ("changed", Json.Int r.p_changed);
                   ("wall_ms", Json.Fixed (3, r.p_wall_ms));
                   ("alloc_words", Json.Fixed (0, r.p_alloc_words));
                 ])
             (pass_rows t)) );
    ]

(* The inverse of [to_json]'s row table: how a worker process's profile
   crosses its pipe to be [merge]d by the parent. *)
let of_json j =
  let t = create () in
  let get r k of_json d =
    Option.value ~default:d (Option.bind (Json.member k r) of_json)
  in
  let str r k = get r k Json.get_string "" in
  let int r k = get r k Json.get_int 0 and num r k = get r k Json.get_float 0. in
  List.iter
    (fun r ->
      Hashtbl.replace t.passes
        (str r "func", str r "pass")
        {
          calls = int r "calls";
          runs = int r "runs";
          changed = int r "changed";
          wall_ms = num r "wall_ms";
          alloc_words = num r "alloc_words";
        })
    (get j "passes" Json.to_list []);
  t

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n xs

(* Rows in [pp_table]'s (function x pass) table. *)
let top = 15

let pp_table ppf t =
  let pass_rows_all = pass_rows t in
  let total_wall = List.fold_left (fun a r -> a +. r.p_wall_ms) 0.0 pass_rows_all in
  Format.fprintf ppf "profile: pass totals (all functions):@.";
  Format.fprintf ppf "  %-16s %8s %8s %8s %12s %14s %7s@." "pass" "calls"
    "runs" "changed" "wall ms" "alloc Mw" "%";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-16s %8d %8d %8d %12.3f %14.3f %6.1f%%@." r.p_pass
        r.p_calls r.p_runs r.p_changed r.p_wall_ms
        (r.p_alloc_words /. 1e6)
        (if total_wall > 0.0 then 100.0 *. r.p_wall_ms /. total_wall else 0.0))
    (by_pass t);
  Format.fprintf ppf "profile: top %d (function x pass):@." top;
  Format.fprintf ppf "  %-24s %-16s %8s %12s %14s@." "function" "pass" "calls"
    "wall ms" "alloc Mw";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-24s %-16s %8d %12.3f %14.3f@." r.p_func r.p_pass
        r.p_calls r.p_wall_ms
        (r.p_alloc_words /. 1e6))
    (take top pass_rows_all)
