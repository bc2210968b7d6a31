(* The rebuild-everything JUMPS pass: the replication pass as it was
   before the analyses were carried across splices.  Every attempt
   builds the spliced function's CFG and dominators from scratch to
   check reducibility, and every applied splice rebuilds all analyses.
   The tests hold {!Replication.Jumps.run} and [explain] to it: the
   same functions, the same events and the same decisions. *)

open Ir
open Flow
open Replication

type config = Jumps.config = {
  heuristic : Jumps.heuristic;
  max_rtls : int option;
  allow_irreducible : bool;
  size_cap : int;
  replicate_indirect : bool;
}

let uncond_jumps func =
  Array.to_list (Func.blocks func)
  |> List.filter_map (fun (b : Func.block) ->
         match Func.terminator b with
         | Some (Rtl.Jump l) -> Some (b.label, l)
         | Some _ | None -> None)

(* A candidate replication: the block sequence, its splice mode, its cost
   in RTLs and whether step-3 loop completion extended it. *)
type candidate = {
  seq : int list;
  mode : Replicate.mode;
  cost : int;
  completed : bool;
}

let mode_name = function
  | Replicate.Ends_with_return -> "favor-returns"
  | Replicate.Fallthrough_to _ -> "favor-loops"

let seq_cost func seq =
  List.fold_left (fun n b -> n + Func.block_size (Func.block func b)) 0 seq

(* Step 3: when the sequence enters the header of a natural loop from
   outside it, include the entire loop in positional order. *)
let complete_loops func loops ~from_block seq =
  ignore func;
  let header_loop h =
    List.find_opt (fun (l : Loops.loop) -> l.header = h) loops
  in
  let rec go prev acc = function
    | [] -> List.rev acc
    | s :: rest -> (
      match header_loop s with
      | Some l when not (Loops.Int_set.mem prev l.body) ->
        (* Control enters the copy at the header, so rotate the positional
           order to start there: header, then the blocks after it, then the
           ones before it (wrapping).  When the header is positionally first
           — the paper's Figure 1 — this is plain positional order. *)
        let loop_blocks =
          let all = Loops.Int_set.elements l.body in
          let after = List.filter (fun x -> x > l.header) all in
          let before = List.filter (fun x -> x < l.header) all in
          (l.header :: after) @ before
        in
        (* Skip the path blocks inside this loop; they are covered by the
           complete copy.  [last_inside] keeps the edge source for the
           continuation. *)
        let rec skip last_inside = function
          | x :: xs when Loops.Int_set.mem x l.body -> skip x xs
          | xs -> (last_inside, xs)
        in
        let last_inside, rest' = skip s rest in
        go last_inside (List.rev_append loop_blocks acc) rest'
      | Some _ | None -> go s (s :: acc) rest)
  in
  go from_block [] seq

(* The innermost loop containing [b] that also contains a sequence block —
   the scope of step 5's overlap repair. *)
let repair_scope loops b seq =
  let candidates =
    List.filter
      (fun (l : Loops.loop) ->
        Loops.Int_set.mem b l.body
        && List.exists (fun s -> Loops.Int_set.mem s l.body) seq)
      loops
  in
  match Loops.innermost_first candidates with
  | l :: _ -> Some l
  | [] -> None

(* Blocks whose copy may terminate a replication sequence: returns always,
   indirect jumps under the section-6 extension (their successors are not
   copied; the shared jump table keeps pointing at the originals). *)
let terminal_blocks config func =
  let blocks = Func.blocks func in
  let out = ref [] in
  Array.iteri
    (fun i b ->
      match Func.terminator b with
      | Some Rtl.Ret -> out := i :: !out
      | Some (Rtl.Ijump _) when config.replicate_indirect -> out := i :: !out
      | Some _ | None -> ())
    blocks;
  List.rev !out

let candidates_for config func g sp loops ~b ~t =
  let n = Func.num_blocks func in
  ignore g;
  let size bi = Func.block_size (Func.block func bi) in
  (* Favoring returns: cheapest path from t to a return block, which is
     itself replicated too. *)
  let ret_cand =
    let best =
      List.fold_left
        (fun best r ->
          let this =
            if r = t then Some ([ t ], size t)
            else
              match Shortest_path.path sp ~src:t ~dst:r with
              | Some p -> Some (p.blocks @ [ r ], p.cost + size r)
              | None -> None
          in
          match best, this with
          | None, x | x, None -> x
          | Some (_, c1), Some (_, c2) -> if c2 < c1 then this else best)
        None (terminal_blocks config func)
    in
    Option.map
      (fun (seq, cost) ->
        { seq; mode = Replicate.Ends_with_return; cost; completed = false })
      best
  in
  (* Favoring loops: cheapest path from t back to the block positionally
     after b; the last block falls through to it. *)
  let loop_cand =
    if b + 1 >= n then None
    else begin
      let f = b + 1 in
      if t = f then None (* jump to next: branch chaining's job *)
      else
        match Shortest_path.path sp ~src:t ~dst:f with
        | Some p ->
          Some
            {
              seq = p.blocks;
              mode = Fallthrough_to f;
              cost = p.cost;
              completed = false;
            }
        | None -> None
    end
  in
  (* Each base candidate is tried plainly first; the loop-completed variant
     (step 3) is a fallback for when the plain copy would leave a loop with
     two entry points — step 6's reducibility check arbitrates. *)
  let with_completion c =
    let seq = complete_loops func loops ~from_block:b c.seq in
    if seq = c.seq then [ c ]
    else [ c; { c with seq; cost = seq_cost func seq; completed = true } ]
  in
  List.concat_map with_completion (List.filter_map Fun.id [ ret_cand; loop_cand ])

let order_candidates heuristic cands =
  let by_cost = List.sort (fun a b -> Int.compare a.cost b.cost) cands in
  match heuristic with
  | Jumps.Shorter -> by_cost
  | Jumps.Favor_returns ->
    List.stable_sort
      (fun a b ->
        match a.mode, b.mode with
        | Replicate.Ends_with_return, Replicate.Fallthrough_to _ -> -1
        | Replicate.Fallthrough_to _, Replicate.Ends_with_return -> 1
        | _ -> 0)
      by_cost
  | Jumps.Favor_loops ->
    List.stable_sort
      (fun a b ->
        match a.mode, b.mode with
        | Replicate.Fallthrough_to _, Replicate.Ends_with_return -> -1
        | Replicate.Ends_with_return, Replicate.Fallthrough_to _ -> 1
        | _ -> 0)
      by_cost

(* The per-function analyses every replacement attempt needs.  They are
   only invalidated by an actual replacement, so the pass shares one
   instance across the (mostly failing or skipped) attempts in a scan. *)
type analyses = {
  g : Cfg.t;
  dom : Dom.t;
  loops : Loops.loop list;
  sp : Shortest_path.t;
}

let analyze func =
  let g = Cfg.make func in
  let dom = Dom.compute g in
  {
    g;
    dom;
    loops = Loops.natural_loops g dom;
    sp = Shortest_path.create func g;
  }

(* What one replacement attempt decided.  [Stale] means the jump named by
   the labels no longer exists (an earlier replacement in the same scan
   rewrote it) — nothing to decide, nothing to log. *)
type outcome =
  | Stale
  | Applied of Func.t * candidate
  | Rejected of Telemetry.Log.reason

let classify config func an (bl, tl) =
  let b =
    match Func.index_of_label func bl with
    | i -> Some i
    | exception Not_found -> None
  in
  match b with
  | None -> Stale
  | Some b -> (
    let block = Func.block func b in
    match Func.terminator block with
    | Some (Rtl.Jump l) when Label.equal l tl -> (
      match Func.index_of_label func tl with
      | exception Not_found -> Stale
      | t when t = b -> Rejected No_path (* self loop: infinite loop, leave it *)
      | t -> (
        let { g; loops; sp; _ } = Lazy.force an in
        let raw = candidates_for config func g sp loops ~b ~t in
        let capped =
          match config.max_rtls with
          | None -> raw
          | Some cap -> List.filter (fun c -> c.cost <= cap) raw
        in
        let cands =
          List.filter (fun c -> c.seq <> [])
            (order_candidates config.heuristic capped)
        in
        match cands with
        | [] ->
          if List.exists (fun c -> c.seq <> []) raw then
            (* Candidates existed but every one was over [max_rtls]. *)
            Rejected Size_cap
          else if
            (not config.replicate_indirect)
            && candidates_for { config with replicate_indirect = true } func g
                 sp loops ~b ~t
               <> []
          then Rejected Indirect_gated
          else Rejected No_path
        | _ :: _ ->
          let attempt c =
            let repair = repair_scope loops b c.seq in
            match
              Replicate.splice ?repair_loop:repair func ~after:b ~seq:c.seq
                ~mode:c.mode
            with
            | exception Invalid_argument _ -> `Splice_failed
            | func', _ ->
              if config.allow_irreducible then `Ok func'
              else begin
                let g' = Cfg.make func' in
                let dom' = Dom.compute g' in
                if Loops.is_reducible g' dom' then `Ok func' else `Irreducible
              end
          in
          let rec first_ok hit_irreducible = function
            | [] ->
              if hit_irreducible then Rejected Irreducible else Rejected No_path
            | c :: rest -> (
              match attempt c with
              | `Ok f -> Applied (f, c)
              | `Irreducible -> first_ok true rest
              | `Splice_failed -> first_ok hit_irreducible rest)
          in
          first_ok false cands))
    | Some _ | None -> Stale)

(* Is the (bl -> tl) jump still present in [func]?  Guards the telemetry
   events so stale scan entries are not reported as decisions. *)
let jump_live func (bl, tl) =
  match Func.index_of_label func bl with
  | exception Not_found -> false
  | b -> (
    match Func.terminator (Func.block func b) with
    | Some (Rtl.Jump l) -> Label.equal l tl
    | Some _ | None -> false)

let run ?(log = Telemetry.Log.null) ?budget config func =
  let fname = Func.name func in
  let jumps = uncond_jumps func in
  let func = ref func in
  let changed = ref false in
  (* Analyses survive failed attempts; only a replacement invalidates. *)
  let an = ref (lazy (analyze !func)) in
  let labels (bl, tl) = (Label.to_string bl, Label.to_string tl) in
  List.iter
    (fun jump ->
      Option.iter Telemetry.Budget.check budget;
      if Func.num_instrs !func > config.size_cap then begin
        if jump_live !func jump then
          Telemetry.Log.emit log (fun () ->
              let jump_from, jump_to = labels jump in
              Telemetry.Log.Replication_rolled_back
                { func = fname; jump_from; jump_to; reason = Size_cap })
      end
      else
        match classify config !func !an jump with
        | Stale -> ()
        | Applied (f, c) ->
          Telemetry.Log.emit log (fun () ->
              let jump_from, jump_to = labels jump in
              Telemetry.Log.Replication_applied
                {
                  func = fname;
                  jump_from;
                  jump_to;
                  mode = mode_name c.mode;
                  seq = c.seq;
                  cost = c.cost;
                  loop_completed = c.completed;
                });
          func := f;
          changed := true;
          an := lazy (analyze f)
        | Rejected reason ->
          Telemetry.Log.emit log (fun () ->
              let jump_from, jump_to = labels jump in
              Telemetry.Log.Replication_rolled_back
                { func = fname; jump_from; jump_to; reason }))
    jumps;
  (!func, !changed)

let explain ?(config = Jumps.default_config) func =
  let an = lazy (analyze func) in
  let over_cap = Func.num_instrs func > config.size_cap in
  List.filter_map
    (fun jump ->
      if over_cap then Some (jump, Jumps.Not_replicated Size_cap)
      else
        match classify config func an jump with
        | Stale -> None
        | Applied (_, c) ->
          Some
            ( jump,
              Jumps.Replicated
                {
                  mode = mode_name c.mode;
                  seq = c.seq;
                  cost = c.cost;
                  loop_completed = c.completed;
                } )
        | Rejected reason -> Some (jump, Jumps.Not_replicated reason))
    (uncond_jumps func)
