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

(* --- test-only fault injection --- *)

(* How [inject_fault] corrupts the named pass's output, proving the
   detection paths end to end from the CLI; the spec syntax is PASS or
   PASS:MODE (default mode: dangling-jump).  [Fault_dangling] (a jump to a
   label that does not exist) is caught by the structural verifier;
   [Fault_flip_branch] and [Fault_drop_store] produce well-formed but
   miscompiled IR that only the static certifier (or the dynamic oracle)
   can convict. *)
type fault_mode = Fault_dangling | Fault_flip_branch | Fault_drop_store

(* Rewrite the first instruction [f] maps to [Some replacement]; also
   returns whether one did. *)
let rewrite_first f func =
  let hit = ref false in
  let rewrite i =
    if !hit then [ i ]
    else
      match f i with
      | Some is ->
        hit := true;
        is
      | None -> [ i ]
  in
  let func' = Func.map_instrs (List.concat_map rewrite) func in
  (func', !hit)

(* Returns whether the corruption applied (a branch/store was found to
   break); an applied corruption forces the pass's changed flag so the
   certifier and oracle actually look at it. *)
let inject_corruption mode func =
  let open Ir.Rtl in
  match mode with
  | Fault_dangling ->
    let bad =
      {
        Func.label = Func.fresh_label func;
        instrs = [ Jump (Ir.Label.of_int 424242) ];
      }
    in
    (Func.with_blocks func (Array.append (Func.blocks func) [| bad |]), true)
  | Fault_flip_branch ->
    rewrite_first
      (function Branch (c, l) -> Some [ Branch (negate_cond c, l) ] | _ -> None)
      func
  | Fault_drop_store ->
    rewrite_first
      (function
        | Move (Lmem _, _) | Binop (_, Lmem _, _, _) | Unop (_, Lmem _, _) ->
          Some []
        | _ -> None)
      func

(* --- Figure 3 as one table of pass rows --- *)

(* One function's compilation: the state of the protective boundary every
   row runs inside (below), and what the rows' [run]s are given. *)
type boundary = {
  b_machine : Ir.Machine.t;
  b_log : Telemetry.Log.t;
  b_replicate : ?allow_irreducible:bool -> Func.t -> Func.t * bool;
      (* abstracts the replication pass so tests can instrument it *)
  b_profiler : Telemetry.Profiler.t;
  b_fname : string;
  b_opts : options;
  b_oracle : Oracle.t option;
  b_diags : Diag.t list ref;
  b_fault : (string * fault_mode) option;
  b_verdicts : Tv.record list ref;
  mutable replayed : bool;
      (* the last presentation was replayed from the fixpoint's memo *)
  mutable quarantined : SSet.t;
  mutable warned : SSet.t;
      (* (pass, unknown-kind) pairs already diagnosed, so the fixpoint loop
         does not repeat the same certifier warning every iteration *)
  mutable baseline : SSet.t;
      (* violations already present in the last accepted IR; only new ones
         convict a pass *)
}

type row = {
  name : string;
  run : boundary -> Func.t -> Func.t * bool;
  enabled : options -> bool;  (* disabled: presented as a no-change run *)
  uncertifiable : string option;
      (* why the pass is structurally outside the simulation relation [Tv]
         decides: a changing instance is recorded Unknown with this reason
         without running the checker, which would only report noise *)
  post : Func.t -> string list;  (* postcondition, never baselined *)
}

let row ?(enabled = fun _ -> true) ?uncertifiable ?(post = fun _ -> []) name
    run =
  { name; run; enabled; uncertifiable; post }

let legalize = row "legalize" (fun g f -> (Legalize.run g.b_machine f, false))
let branch_chain = row "branch-chain" (fun _ -> Branch_chain.run)

let unreachable =
  row "unreachable" (fun _ -> Unreachable.run) ~post:Check.unreachable_blocks

let reorder = row "reorder" (fun _ -> Reorder.run)
let replicate = row "replicate" (fun g f -> g.b_replicate f)

let isel =
  row "isel" (fun g f -> Isel.run g.b_machine f)
    ~enabled:(fun o -> o.enable_isel)

let cse = row "cse" (fun _ -> Cse.run) ~enabled:(fun o -> o.enable_cse)
let gcse = row "gcse" (fun _ -> Gcse.run) ~enabled:(fun o -> o.enable_cse)
let deadvars = row "deadvars" (fun _ -> Deadvars.run)

let licm =
  row "licm" (fun _ f -> Licm.run f) ~enabled:(fun o -> o.enable_licm)
    ~uncertifiable:
      "loop-invariant code motion inserts preheaders and moves code across \
       blocks"

let strength =
  row "strength" (fun _ -> Strength.run) ~enabled:(fun o -> o.enable_strength)
    ~uncertifiable:
      "strength reduction introduces induction temporaries and preheaders"

let constfold = row "constfold" (fun g f -> Constfold.run g.b_machine f)

let replicate_final =
  row "replicate-final" (fun g f -> g.b_replicate ~allow_irreducible:true f)

(* Register allocation performs its own post-assignment cleanup
   (post-allocation liveness cannot see the caller's use of callee-save
   registers, so Deadvars must not run after it). *)
let regalloc =
  row "regalloc" ~enabled:(fun o -> o.allocate) ~post:Check.no_virtuals
    ~uncertifiable:
      "register allocation renames every register and inserts spill code"
    (fun g f -> (Regalloc.run ~log:g.b_log g.b_machine f, false))

(* Displacement selection prices the final layout, so it must be the very
   last pass. *)
let displace = row "displace" (fun g f -> Displace.run g.b_machine f)

(* Initial branch optimizations, then replication on the clean flow. *)
let prefix =
  [| legalize; branch_chain; unreachable; reorder; branch_chain; replicate;
     unreachable |]

(* The Figure-3 do-while loop's body. *)
let fixpoint =
  [| isel; cse; gcse; deadvars; licm; strength; isel; branch_chain; constfold;
     replicate; unreachable |]

(* Final replication also takes what would be irreducible. *)
let suffix =
  [| replicate_final; unreachable; branch_chain; unreachable; deadvars;
     regalloc; displace |]

let names rows = Array.to_list (Array.map (fun r -> r.name) rows)

let pass_names =
  List.sort_uniq String.compare
    (names (Array.concat [ prefix; fixpoint; suffix ]))

let pipeline_signature =
  String.concat ","
    (names prefix
    @ [ "fix(" ^ String.concat "," (names fixpoint) ^ ")" ]
    @ names suffix)

let parse_fault spec =
  let pass, mode =
    match String.index_opt spec ':' with
    | None -> (spec, "dangling-jump")
    | Some i ->
      let n = String.length spec in
      (String.sub spec 0 i, String.sub spec (i + 1) (n - i - 1))
  in
  let fail fmt =
    Diag.error Diag.Semantic_error ~func:"" ~pass:"inject-fault" fmt
  in
  if not (List.mem pass pass_names) then
    fail "unknown pass %S (expected one of: %s)" pass
      (String.concat ", " pass_names);
  match mode with
  | "dangling-jump" -> (pass, Fault_dangling)
  | "flip-branch" -> (pass, Fault_flip_branch)
  | "drop-store" -> (pass, Fault_drop_store)
  | _ ->
    fail
      "unknown fault mode %S (expected dangling-jump, flip-branch or \
       drop-store)"
      mode

(* --- the protective pass boundary --- *)

(* Every pass runs inside a boundary that verifies its output and, on a
   verifier failure, a raised exception, or a differential-oracle mismatch,
   rolls the function back to the pass's input (the last-good IR), records
   a diagnostic, quarantines the pass for the rest of this function's
   compilation, and lets the pipeline continue.  One bad pass on one
   function no longer aborts the build. *)

(* Cheap checks always; --verify-passes adds the expensive ones. *)
let generic_violations opts func = Check.errors ~full:opts.verify_passes func

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
let certify_after g row ~before ~after =
  let name = row.name in
  let verdict =
    match row.uncertifiable with
    | None -> Tv.certify_pass ~before ~after ()
    | Some reason -> Tv.Unknown { reason; timeout = false }
  in
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

let guard g row func =
  let name = row.name in
  if SSet.mem name g.quarantined then (func, false)
  else
    match row.run g func with
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
      (* [g.baseline] is the violation set of [func], so an output that
         is its input has no fresh violation to find and keeps it. *)
      let same = func' == func in
      let viols = if same then [] else generic_violations g.b_opts func' in
      let fresh =
        List.filter (fun v -> not (SSet.mem v g.baseline)) viols
        @ row.post func'
      in
      if fresh <> [] then begin
        quarantine g name Diag.Malformed_ir fresh
          (Printf.sprintf "verifier: %s" (String.concat "; " fresh));
        (func, false)
      end
      else if
        g.b_opts.certify && changed
        && not (certify_after g row ~before:func ~after:func')
      then (func, false)
      else
        let accept () =
          if not same then g.baseline <- SSet.of_list viols;
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

(* --- the walker: per-pass spans with IR deltas --- *)

(* Blocks ending in an unconditional transfer ([Jump] or [Ijump]): the
   quantity the whole optimization exists to reduce, tracked per pass. *)
let count_ujumps func =
  Array.fold_left
    (fun n b ->
      match Func.terminator b with
      | Some (Ir.Rtl.Jump _) | Some (Ir.Rtl.Ijump _) -> n + 1
      | Some _ | None -> n)
    0 (Func.blocks func)

(* [Func.t] is immutable, so the input's shape can be taken after the pass. *)
let delta before after =
  {
    Telemetry.Log.instrs_before = Func.num_instrs before;
    instrs_after = Func.num_instrs after;
    blocks_before = Func.num_blocks before;
    blocks_after = Func.num_blocks after;
    ujumps_before = count_ujumps before;
    ujumps_after = count_ujumps after;
  }

(* The fixpoint keeps re-presenting passes with functions they have
   already reported no change on — the final iteration consists of nothing
   else.  Passes are deterministic on an unchanged input ([Func.t] is
   immutable), so the previous no-change verdict, including the boundary's
   verification of that exact IR, can be replayed without running
   anything.  A no-change run may still draw fresh names from the
   function's shared supplies (replicate draws labels for candidates it
   then rejects), so a replay can leave later labels numbered lower than a
   rerun would; it never changes what the function does.  The memo sits
   outside the guard on purpose: re-verifying an already-accepted function
   is as redundant as re-optimizing it.  Only the fixpoint has a memo; it
   is keyed by pass name, so isel's two slots share one entry.

   The memo compares functions with [==]: it replays a pass only on the
   very function it last left unchanged.  So every pass that reports no
   change returns its input itself, not an equal copy.  A pass handed an
   equal but rebuilt function (cse after isel undid cse's last change)
   runs again; [fix] catches the round that ends on its own input by
   comparing blocks once per round, not once per presentation.

   A row presented to [func]: replayed from the memo, a no-change run when
   the row is disabled, else the pass in its boundary.  ([mem] then [find]
   allocates no option.) *)
let outcome g memo row func =
  match memo with
  | Some seen
    when Hashtbl.mem seen row.name && Hashtbl.find seen row.name == func ->
    g.replayed <- true;
    (func, false)
  | _ ->
    let ((func', changed) as result) =
      if row.enabled g.b_opts then guard g row func else (func, false)
    in
    (match memo with
    | Some seen when not changed -> Hashtbl.replace seen row.name func'
    | _ -> ());
    result

(* One presentation under a span: [Pass_begin], the outcome, [Pass_end]
   with the before/after shape and elapsed wall-clock time.  When a
   profiler is attached, the same span also charges the pass's wall time
   and GC allocation to its (function x pass) row, telling a replayed
   verdict from a real run.  Disabled logs and the null profiler pay one
   branch and no allocation. *)
let present g memo row func =
  let log = g.b_log and profiler = g.b_profiler in
  let logging = Telemetry.Log.enabled log in
  let profiling = Telemetry.Profiler.enabled profiler in
  if not (logging || profiling) then outcome g memo row func
  else begin
    if logging then
      Telemetry.Log.emit log (fun () ->
          Telemetry.Log.Pass_begin { func = g.b_fname; pass = row.name });
    let alloc0 = if profiling then Telemetry.Profiler.alloc_words () else 0.0 in
    g.replayed <- false;
    let t0 = Unix.gettimeofday () in
    let func', changed = outcome g memo row func in
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    if profiling then
      Telemetry.Profiler.record_pass profiler ~func:g.b_fname ~pass:row.name
        ~ran:(not g.replayed) ~changed ~wall_ms:elapsed_ms
        ~alloc:(Telemetry.Profiler.alloc_words () -. alloc0);
    if logging then
      Telemetry.Log.emit log (fun () ->
          Telemetry.Log.Pass_end
            {
              func = g.b_fname;
              pass = row.name;
              changed;
              delta = delta func func';
              elapsed_ms;
            });
    (func', changed)
  end

(* Present a stage's rows in order, threading the change flag.  Also
   reports the name of the last pass that changed the function, for the
   fixpoint-divergence warning. *)
let walk ?memo g rows func =
  let rec go i func changed last =
    if i = Array.length rows then (func, changed, last)
    else
      let func, c = present g memo rows.(i) func in
      go (i + 1) func (changed || c) (if c then rows.(i).name else last)
  in
  go 0 func false ""

let replication_pass ?log ?budget opts ~size_cap ~allow_irreducible func =
  match opts.level with
  | Simple -> (func, false)
  | Loops -> Replication.Loops_rep.run ?log func
  | Jumps ->
    Replication.Jumps.run ?log ?budget
      {
        Replication.Jumps.heuristic = opts.heuristic;
        max_rtls = opts.max_rtls;
        allow_irreducible;
        size_cap;
        replicate_indirect = true;
      }
      func

(* The boundary of one function's compilation, its baseline taken from
   [func]. *)
let boundary ~log ~profiler ~diags ~verdicts ?oracle ~replicate opts machine
    func =
  {
    b_machine = machine;
    b_log = log;
    b_replicate = replicate;
    b_profiler = profiler;
    b_fname = Func.name func;
    b_opts = opts;
    b_oracle = oracle;
    b_diags = diags;
    b_fault = Option.map parse_fault opts.inject_fault;
    b_verdicts = verdicts;
    replayed = false;
    quarantined = SSet.empty;
    warned = SSet.empty;
    baseline = SSet.of_list (generic_violations opts func);
  }

let run_guarded ?post opts machine passes func =
  let diags = ref [] in
  let g =
    boundary ~log:Telemetry.Log.null ~profiler:Telemetry.Profiler.null ~diags
      ~verdicts:(ref [])
      ~replicate:(fun ?allow_irreducible:_ f -> (f, false))
      opts machine func
  in
  let rows =
    Array.of_list
      (List.map (fun (name, run) -> row ?post name (fun _ -> run)) passes)
  in
  let func, changed, _ = walk g rows func in
  ((func, changed), !diags)

let optimize_func_with ?(log = Telemetry.Log.null)
    ?(profiler = Telemetry.Profiler.null) ?(diags = ref [])
    ?(verdicts = ref []) ?oracle
    ~(replicate : ?allow_irreducible:bool -> Func.t -> Func.t * bool) opts
    machine func =
  let fname = Func.name func in
  let g =
    boundary ~log ~profiler ~diags ~verdicts ?oracle ~replicate opts machine
      func
  in
  (if not (SSet.is_empty g.baseline) then
     diags :=
       Diag.make ~severity:Diag.Warn Diag.Malformed_ir ~func:fname ~pass:"input"
         (Printf.sprintf "pipeline input already ill-formed: %s"
            (String.concat "; " (SSet.elements g.baseline)))
       :: !diags);
  let func, _, _ = walk g prefix func in
  let memo = Hashtbl.create 16 in
  (* The Figure-3 do-while loop. *)
  let rec fix input n =
    if n = 0 then input
    else begin
      let quarantined = g.quarantined in
      let func, changed, last_pass = walk ~memo g fixpoint input in
      Telemetry.Log.emit log (fun () ->
          Telemetry.Log.Fixpoint_iteration
            {
              func = fname;
              iteration = opts.max_iterations - n + 1;
              changed;
            });
      (* "Until no change" is read from the function as well as from the
         flags: passes that undo each other within a round (cse and isel
         on cisc) report changes while the round ends on its own input,
         and the next round would repeat it.  A quarantine changes what the
         next round runs, so a round that quarantined a pass is not a
         fixpoint even when it ends on its input. *)
      if
        (not changed)
        || SSet.equal g.quarantined quarantined
           && Func.equal_blocks func input
      then func
      else if n = 1 then begin
        (* The iteration cap was hit while the function still changed:
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
  let func, _, _ = walk g suffix func in
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

let optimize_func ?log ?profiler ?(diags = ref []) ?(verdicts = ref []) ?oracle
    opts machine func =
  (* Growth cap for replication, relative to the pre-replication size. *)
  (* The paper's worst growth is ~3x (deroff); 8x is a generous ceiling
     that still bounds pathological replication cascades. *)
  let size_cap = max 2000 (8 * Func.num_instrs func) in
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

let optimize ?log ?profiler ?(diags = ref []) ?verdicts opts machine prog =
  let oracle =
    if opts.verify_passes then Some (Oracle.make machine prog) else None
  in
  let prog' =
    Prog.map_funcs
      (optimize_func ?log ?profiler ~diags ?verdicts ?oracle opts machine)
      prog
  in
  (if opts.verify_passes then
     match Check.program_errors prog' with
     | [] -> ()
     | errs ->
       diags :=
         Diag.make Diag.Malformed_ir ~func:"" ~pass:"program"
           (String.concat "; " errs)
         :: !diags);
  prog'

let compile ?log ?profiler ?diags ?verdicts opts machine source =
  optimize ?log ?profiler ?diags ?verdicts opts machine
    (Frontend.Codegen.compile_source source)
