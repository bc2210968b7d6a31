open Flow
module Diag = Telemetry.Diag
module SSet = Set.Make (String)

type level = Simple | Loops | Jumps

let level_name = function
  | Simple -> "SIMPLE"
  | Loops -> "LOOPS"
  | Jumps -> "JUMPS"

let level_of_string s =
  match String.lowercase_ascii s with
  | "simple" -> Some Simple
  | "loops" -> Some Loops
  | "jumps" -> Some Jumps
  | _ -> None

type options = {
  level : level;
  heuristic : Replication.Jumps.heuristic;
  max_rtls : int option;
  allocate : bool;
  max_iterations : int;
  enable_cse : bool;
  enable_licm : bool;
  enable_strength : bool;
  enable_isel : bool;
  verify_passes : bool;
  certify : bool;
  inject_fault : string option;
  budget : Telemetry.Budget.t option;
}

let default_options =
  {
    level = Simple;
    heuristic = Replication.Jumps.Shorter;
    max_rtls = None;
    allocate = true;
    max_iterations = 8;
    enable_cse = true;
    enable_licm = true;
    enable_strength = true;
    enable_isel = true;
    verify_passes = false;
    certify = false;
    inject_fault = None;
    budget = None;
  }

let options ?(level = Simple) () = { default_options with level }

(* How [inject_fault] corrupts the named pass's output; the spec syntax is
   PASS or PASS:MODE (default mode: dangling-jump). *)
type fault_mode = Fault_dangling | Fault_flip_branch | Fault_drop_store

(* --- telemetry: per-pass spans with IR deltas --- *)

(* Blocks ending in an unconditional transfer ([Jump] or [Ijump]): the
   quantity the whole optimization exists to reduce, tracked per pass. *)
let count_ujumps func =
  Array.fold_left
    (fun n b ->
      match Func.terminator b with
      | Some (Ir.Rtl.Jump _) | Some (Ir.Rtl.Ijump _) -> n + 1
      | Some _ | None -> n)
    0 (Func.blocks func)

let shape func = (Func.num_instrs func, Func.num_blocks func, count_ujumps func)

(* Run one named pass under a span: [Pass_begin], the pass, [Pass_end] with
   the before/after shape and elapsed wall-clock time.  When a profiler is
   attached, the same span also charges the pass's wall time and GC
   allocation to its (function x pass) row; [replayed], set by the
   fixpoint's memo, tells a replayed verdict from a real run.  Disabled
   logs and the null profiler pay one branch and no allocation. *)
let run_pass ?replayed log profiler fname (name, pass) func =
  let logging = Telemetry.Log.enabled log in
  let profiling = Telemetry.Profiler.enabled profiler in
  if not (logging || profiling) then pass func
  else begin
    let instrs_before, blocks_before, ujumps_before =
      if logging then shape func else (0, 0, 0)
    in
    if logging then
      Telemetry.Log.emit log (fun () ->
          Telemetry.Log.Pass_begin { func = fname; pass = name });
    let alloc0 = if profiling then Telemetry.Profiler.alloc_words () else 0.0 in
    Option.iter (fun r -> r := false) replayed;
    let t0 = Unix.gettimeofday () in
    let func', changed = pass func in
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    if profiling then
      Telemetry.Profiler.record_pass profiler ~func:fname ~pass:name
        ~ran:(match replayed with Some r -> not !r | None -> true)
        ~changed ~wall_ms:elapsed_ms
        ~alloc:(Telemetry.Profiler.alloc_words () -. alloc0);
    if logging then begin
      let instrs_after, blocks_after, ujumps_after = shape func' in
      Telemetry.Log.emit log (fun () ->
          Telemetry.Log.Pass_end
            {
              func = fname;
              pass = name;
              changed;
              delta =
                {
                  instrs_before;
                  instrs_after;
                  blocks_before;
                  blocks_after;
                  ujumps_before;
                  ujumps_after;
                };
              elapsed_ms;
            })
    end;
    (func', changed)
  end

(* Compose named passes, threading the change flag and spanning each.
   Also reports the name of the last pass that changed the function, for
   the fixpoint-divergence warning. *)
let seq ?(log = Telemetry.Log.null) ?(profiler = Telemetry.Profiler.null)
    ?replayed ~fname passes func =
  List.fold_left
    (fun (func, changed, last) (name, pass) ->
      let func, c = run_pass ?replayed log profiler fname (name, pass) func in
      (func, changed || c, if c then name else last))
    (func, false, "") passes

(* --- the protective pass boundary --- *)

(* Every pass runs inside a boundary that verifies its output and, on a
   verifier failure, a raised exception, or a differential-oracle mismatch,
   rolls the function back to the pass's input (the last-good IR), records
   a diagnostic, quarantines the pass for the rest of this function's
   compilation, and lets the pipeline continue.  One bad pass on one
   function no longer aborts the build. *)
type boundary = {
  b_log : Telemetry.Log.t;
  b_fname : string;
  b_opts : options;
  b_oracle : Oracle.t option;
  b_diags : Diag.t list ref;
  b_fault : (string * fault_mode) option;
  b_verdicts : Tv.record list ref;
  mutable quarantined : SSet.t;
  mutable warned : SSet.t;
      (* (pass, unknown-kind) pairs already diagnosed, so the fixpoint loop
         does not repeat the same certifier warning every iteration *)
  mutable baseline : SSet.t;
      (* violations already present in the last accepted IR; only new ones
         convict a pass *)
}

(* Cheap checks always; --verify-passes adds the expensive ones. *)
let generic_violations opts func = Check.errors ~full:opts.verify_passes func

(* Checks that are postconditions of specific passes, never baselined. *)
let pass_postconditions name func =
  match name with
  | "unreachable" -> Check.unreachable_blocks func
  | "regalloc" -> Check.no_virtuals func
  | _ -> []

(* Test-only fault injection: corrupt the named pass's output, proving the
   detection paths end to end from the CLI.  [Fault_dangling] (a jump to a
   label that does not exist) is caught by the structural verifier;
   [Fault_flip_branch] and [Fault_drop_store] produce well-formed but
   miscompiled IR that only the static certifier (or the dynamic oracle)
   can convict. *)
let fault_mode_of_string = function
  | "dangling-jump" -> Some Fault_dangling
  | "flip-branch" -> Some Fault_flip_branch
  | "drop-store" -> Some Fault_drop_store
  | _ -> None

let parse_fault spec =
  match String.index_opt spec ':' with
  | None -> Ok (spec, Fault_dangling)
  | Some i ->
    let pass = String.sub spec 0 i in
    let mode = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match fault_mode_of_string mode with
    | Some m -> Ok (pass, m)
    | None -> Error mode)

(* Returns whether the corruption applied (a branch/store was found to
   break); an applied corruption forces the pass's changed flag so the
   certifier and oracle actually look at it. *)
let inject_corruption mode func =
  match mode with
  | Fault_dangling ->
    let bad =
      {
        Func.label = Func.fresh_label func;
        instrs = [ Ir.Rtl.Jump (Ir.Label.of_int 424242) ];
      }
    in
    (Func.with_blocks func (Array.append (Func.blocks func) [| bad |]), true)
  | Fault_flip_branch ->
    let hit = ref false in
    let func' =
      Func.map_instrs
        (List.map (fun i ->
             match i with
             | Ir.Rtl.Branch (c, l) when not !hit ->
               hit := true;
               Ir.Rtl.Branch (Ir.Rtl.negate_cond c, l)
             | i -> i))
        func
    in
    (func', !hit)
  | Fault_drop_store ->
    let hit = ref false in
    let func' =
      Func.map_instrs
        (List.filter (fun i ->
             if !hit then true
             else
               match i with
               | Ir.Rtl.Move (Ir.Rtl.Lmem _, _)
               | Ir.Rtl.Binop (_, Ir.Rtl.Lmem _, _, _)
               | Ir.Rtl.Unop (_, Ir.Rtl.Lmem _, _) ->
                 hit := true;
                 false
               | _ -> true))
        func
    in
    (func', !hit)

let quarantine g name code violations message =
  g.quarantined <- SSet.add name g.quarantined;
  g.b_diags := Diag.make code ~func:g.b_fname ~pass:name message :: !(g.b_diags);
  Telemetry.Log.emit g.b_log (fun () ->
      Telemetry.Log.Pass_quarantined
        { func = g.b_fname; pass = name; code = Diag.code_name code; violations })

(* The static certifier, consulted after every changing pass under
   [--certify].  A refutation convicts the pass like an oracle mismatch:
   quarantine plus rollback.  Unknown verdicts are recorded (once per
   (pass, kind) per function — the fixpoint loop would otherwise repeat
   them) as warnings and the output is kept: Unknown is absence of a
   proof, not evidence of a bug. *)
let certify_after g name ~before ~after =
  let verdict = Tv.certify_pass ~pass:name ~before ~after () in
  g.b_verdicts :=
    { Tv.vfunc = g.b_fname; vpass = name; verdict } :: !(g.b_verdicts);
  match verdict with
  | Tv.Certified -> true
  | Tv.Unknown { reason; timeout } ->
    let key = name ^ if timeout then "/timeout" else "/unknown" in
    if not (SSet.mem key g.warned) then begin
      g.warned <- SSet.add key g.warned;
      g.b_diags :=
        Diag.make ~severity:Diag.Warn
          (if timeout then Diag.Certifier_timeout else Diag.Uncertifiable_pass)
          ~func:g.b_fname ~pass:name reason
        :: !(g.b_diags)
    end;
    true
  | Tv.Refuted { reason; path } ->
    quarantine g name Diag.Certify_refuted path
      (Printf.sprintf "%s; counterexample path: %s" reason
         (String.concat " -> " path));
    false

let guard g name pass func =
  if SSet.mem name g.quarantined then (func, false)
  else
    match pass func with
    | exception Diag.Error d ->
      quarantine g name d.Diag.code [] d.Diag.message;
      (func, false)
    | exception Sys.Break -> raise Sys.Break
    (* Budget exhaustion is not a pass failure: it must reach the
       degradation loop in [optimize_func], not quarantine the pass. *)
    | exception (Telemetry.Budget.Exhausted _ as e) -> raise e
    | exception Analysis.Dataflow.Diverged msg ->
      quarantine g name Diag.Analysis_diverged [] msg;
      (func, false)
    | exception exn ->
      quarantine g name Diag.Pass_raised [] (Printexc.to_string exn);
      (func, false)
    | func', changed -> (
      let func', changed =
        match g.b_fault with
        | Some (target, mode) when String.equal target name ->
          let func', applied = inject_corruption mode func' in
          (func', changed || applied)
        | _ -> (func', changed)
      in
      let viols = generic_violations g.b_opts func' in
      let fresh =
        List.filter (fun v -> not (SSet.mem v g.baseline)) viols
        @ pass_postconditions name func'
      in
      if fresh <> [] then begin
        quarantine g name Diag.Malformed_ir fresh
          (Printf.sprintf "verifier: %s" (String.concat "; " fresh));
        (func, false)
      end
      else if
        g.b_opts.certify && changed
        && not (certify_after g name ~before:func ~after:func')
      then (func, false)
      else
        let accept () =
          g.baseline <- SSet.of_list viols;
          (func', changed)
        in
        match g.b_oracle with
        | Some o when changed && Oracle.applies o func' -> (
          match Oracle.divergence o ~baseline:func ~candidate:func' with
          | Some msg ->
            quarantine g name Diag.Oracle_mismatch [] msg;
            (func, false)
          | None -> accept ())
        | _ -> accept ())

let jumps_config opts ~size_cap ~allow_irreducible =
  {
    Replication.Jumps.heuristic = opts.heuristic;
    max_rtls = opts.max_rtls;
    allow_irreducible;
    size_cap;
    replicate_indirect = true;
  }

let replication_pass ?log ?budget opts ~size_cap ~allow_irreducible func =
  match opts.level with
  | Simple -> (func, false)
  | Loops -> Replication.Loops_rep.run ?log func
  | Jumps ->
    Replication.Jumps.run ?log ?budget
      (jumps_config opts ~size_cap ~allow_irreducible)
      func

(* [replicate] abstracts the replication pass so tests can instrument it
   (e.g. cap the number of replacements, or return deliberately broken
   IR to exercise the quarantine path). *)
let optimize_func_with ?(log = Telemetry.Log.null)
    ?(profiler = Telemetry.Profiler.null) ?(diags = ref [])
    ?(verdicts = ref []) ?oracle
    ~(replicate : ?allow_irreducible:bool -> Func.t -> Func.t * bool) opts
    machine func =
  let fname = Func.name func in
  let fault =
    match opts.inject_fault with
    | None -> None
    | Some spec -> (
      match parse_fault spec with
      | Ok pm -> Some pm
      | Error mode ->
        Diag.error Diag.Semantic_error ~func:fname ~pass:"inject-fault"
          "unknown fault mode %S (expected dangling-jump, flip-branch or \
           drop-store)"
          mode)
  in
  let g =
    {
      b_log = log;
      b_fname = fname;
      b_opts = opts;
      b_oracle = oracle;
      b_diags = diags;
      b_fault = fault;
      b_verdicts = verdicts;
      quarantined = SSet.empty;
      warned = SSet.empty;
      baseline = SSet.of_list (generic_violations opts func);
    }
  in
  (if not (SSet.is_empty g.baseline) then
     diags :=
       Diag.make ~severity:Diag.Warn Diag.Malformed_ir ~func:fname ~pass:"input"
         (Printf.sprintf "pipeline input already ill-formed: %s"
            (String.concat "; " (SSet.elements g.baseline)))
       :: !diags);
  let seq_raw = seq in
  let seq passes func =
    seq_raw ~log ~profiler ~fname
      (List.map (fun (name, pass) -> (name, guard g name pass)) passes)
      func
  in
  let func, _, _ =
    seq [ ("legalize", fun f -> (Legalize.run machine f, false)) ] func
  in
  let replicate_pass func = replicate func in
  (* Initial branch optimizations, then replication on the clean flow. *)
  let func, _, _ =
    seq
      [
        ("branch-chain", Branch_chain.run);
        ("unreachable", Unreachable.run);
        ("reorder", Reorder.run);
        ("branch-chain", Branch_chain.run);
        ("replicate", replicate_pass);
        ("unreachable", Unreachable.run);
      ]
      func
  in
  (* The fixpoint keeps re-presenting passes with functions they have
     already reported no change on — the final iteration consists of
     nothing else.  Passes are deterministic on an unchanged input
     ([Func.t] is immutable and a no-change run draws no fresh names), so
     the previous no-change verdict, including the boundary's verification
     of that exact IR, can be replayed without running anything.  The memo
     sits outside the guard on purpose: re-verifying an already-accepted
     function is as redundant as re-optimizing it. *)
  let nochange : (string, Func.t) Hashtbl.t = Hashtbl.create 16 in
  let replayed = ref false in
  let memo name pass f =
    match Hashtbl.find_opt nochange name with
    | Some f0 when f0 == f ->
      replayed := true;
      (f, false)
    | _ ->
      let f', c = pass f in
      if not c then Hashtbl.replace nochange name f';
      (f', c)
  in
  let seq_fix passes func =
    seq_raw ~log ~profiler ~replayed ~fname
      (List.map
         (fun (name, pass) -> (name, memo name (guard g name pass)))
         passes)
      func
  in
  (* The Figure-3 do-while loop. *)
  let rec fix func n =
    if n = 0 then func
    else begin
      let gate enabled pass = if enabled then pass else fun f -> (f, false) in
      let func, changed, last_pass =
        seq_fix
          [
            ("isel", gate opts.enable_isel (Isel.run machine));
            ("cse", gate opts.enable_cse Cse.run);
            ("gcse", gate opts.enable_cse Gcse.run);
            ("deadvars", Deadvars.run);
            ("licm", gate opts.enable_licm Licm.run);
            ("strength", gate opts.enable_strength Strength.run);
            ("isel", gate opts.enable_isel (Isel.run machine));
            ("branch-chain", Branch_chain.run);
            ("constfold", Constfold.run machine);
            ("replicate", replicate_pass);
            ("unreachable", Unreachable.run);
          ]
          func
      in
      Telemetry.Log.emit log (fun () ->
          Telemetry.Log.Fixpoint_iteration
            {
              func = fname;
              iteration = opts.max_iterations - n + 1;
              changed;
            });
      if not changed then func
      else if n = 1 then begin
        (* The iteration cap was hit while a pass still reported progress:
           warn instead of silently stopping. *)
        Telemetry.Log.emit log (fun () ->
            Telemetry.Log.Fixpoint_diverged
              { func = fname; iterations = opts.max_iterations; last_pass });
        diags :=
          Diag.make ~severity:Diag.Warn Diag.No_convergence ~func:fname
            ~pass:last_pass
            (Printf.sprintf
               "fixpoint not reached after %d iterations; %s still reported a \
                change"
               opts.max_iterations last_pass)
          :: !diags;
        func
      end
      else fix func (n - 1)
    end
  in
  let func = fix func opts.max_iterations in
  (* Final replication invocation: also take what would be irreducible. *)
  let func, _, _ =
    seq
      [
        ("replicate-final", replicate ~allow_irreducible:true);
        ("unreachable", Unreachable.run);
        ("branch-chain", Branch_chain.run);
        ("unreachable", Unreachable.run);
        ("deadvars", Deadvars.run);
      ]
      func
  in
  (* Register allocation last; it performs its own post-assignment
     cleanup (post-allocation liveness cannot see the caller's use of
     callee-save registers, so Deadvars must not run after it). *)
  let func =
    if opts.allocate then
      let func, _, _ =
        seq [ ("regalloc", fun f -> (Regalloc.run ~log machine f, false)) ] func
      in
      func
    else func
  in
  (* Displacement selection prices the final layout, so it must be the
     very last pass.  It goes through the boundary like any other pass:
     an injected `displace:*` fault is caught by the verifier or oracle
     and rolls the function back to its fixed-size encoding. *)
  let func, _, _ = seq [ ("displace", Displace.run machine) ] func in
  (* Belt and braces: the boundary gated every pass, so only violations the
     input already had can remain. *)
  (match
     List.filter
       (fun v -> not (SSet.mem v g.baseline))
       (generic_violations opts func)
   with
  | [] -> ()
  | fresh ->
    raise
      (Diag.Error
         (Diag.make Diag.Malformed_ir ~func:fname ~pass:"output"
            (String.concat "; " fresh))));
  func

let next_cheaper = function Jumps -> Some Loops | Loops -> Some Simple | Simple -> None

let optimize_func ?log ?profiler ?diags ?verdicts ?oracle opts machine func =
  (* Growth cap for replication, relative to the pre-replication size. *)
  (* The paper's worst growth is ~3x (deroff); 8x is a generous ceiling
     that still bounds pathological replication cascades. *)
  let size_cap = max 2000 (8 * Func.num_instrs func) in
  let diags = match diags with Some d -> d | None -> ref [] in
  let verdicts = match verdicts with Some v -> v | None -> ref [] in
  let input_rtls = max 1 (Func.num_instrs func) in
  (* Budget exhaustion degrades the function to the next-cheaper
     configuration (JUMPS -> LOOPS -> SIMPLE) instead of aborting: the
     attempt restarts from the original input IR, so a partially
     transformed function is never kept.  SIMPLE runs without budget
     checks, so the recursion always terminates with a compiled
     function. *)
  let rec attempt level =
    let opts = { opts with level } in
    let budget = if level = Simple then None else opts.budget in
    (* Verdicts of an abandoned attempt describe IR that was thrown away. *)
    let verdicts_before = !verdicts in
    let repl_added = ref 0 in
    let growth_cap =
      match budget with
      | None -> None
      | Some b ->
        Option.map (fun pct -> input_rtls * pct / 100) (Telemetry.Budget.growth b)
    in
    let replicate ?(allow_irreducible = false) func =
      Option.iter Telemetry.Budget.check budget;
      let func', changed =
        replication_pass ?log ?budget opts ~size_cap ~allow_irreducible func
      in
      repl_added :=
        !repl_added + max 0 (Func.num_instrs func' - Func.num_instrs func);
      (match growth_cap with
      | Some cap when !repl_added > cap ->
        raise (Telemetry.Budget.Exhausted Telemetry.Budget.Growth)
      | Some _ | None -> ());
      (func', changed)
    in
    match
      optimize_func_with ?log ?profiler ~diags ~verdicts ?oracle ~replicate
        opts machine func
    with
    | func' -> func'
    | exception Telemetry.Budget.Exhausted reason -> (
      verdicts := verdicts_before;
      match next_cheaper level with
      | None -> raise (Telemetry.Budget.Exhausted reason)
      | Some lower ->
        diags :=
          Diag.make ~severity:Diag.Warn Diag.Budget_exhausted
            ~func:(Func.name func) ~pass:"budget"
            (Printf.sprintf "%s budget exhausted at %s; degrading to %s"
               (Telemetry.Budget.reason_name reason)
               (level_name level) (level_name lower))
          :: !diags;
        attempt lower)
  in
  attempt opts.level

let optimize ?log ?profiler ?diags ?verdicts opts machine prog =
  let oracle =
    if opts.verify_passes then Some (Oracle.make machine prog) else None
  in
  let prog' =
    Prog.map_funcs
      (optimize_func ?log ?profiler ?diags ?verdicts ?oracle opts machine)
      prog
  in
  (if opts.verify_passes then
     match Check.program_errors prog' with
     | [] -> ()
     | errs ->
       Option.iter
         (fun diags ->
           diags :=
             Diag.make Diag.Malformed_ir ~func:"" ~pass:"program"
               (String.concat "; " errs)
             :: !diags)
         diags);
  prog'

let compile ?log ?profiler ?diags ?verdicts opts machine source =
  optimize ?log ?profiler ?diags ?verdicts opts machine
    (Frontend.Codegen.compile_source source)

(* Keep in sync with [optimize_func_with]: any pass added, removed or
   reordered must change this string, or campaign stores will reuse
   results computed by a different compiler. *)
let pipeline_signature =
  String.concat ","
    [
      "legalize";
      "branch-chain";
      "unreachable";
      "reorder";
      "branch-chain";
      "replicate";
      "unreachable";
      "fix(isel,cse,gcse,deadvars,licm,strength,isel,branch-chain,constfold,replicate,unreachable)";
      "replicate-final";
      "unreachable";
      "branch-chain";
      "unreachable";
      "deadvars";
      "regalloc";
      "displace";
    ]
