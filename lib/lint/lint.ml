open Ir
open Flow
module Diag = Telemetry.Diag

let diag_of_decision ~func ~pass ((src, dst), decision) =
  let code, severity =
    match (decision : Replication.Jumps.decision) with
    | Replicated { loop_completed = true; _ } ->
      (Diag.Loop_replication, Diag.Warn)
    | Replicated _ -> (Diag.Code_growth, Diag.Warn)
    | Not_replicated _ -> (Diag.Jump_residual, Diag.Warn)
  in
  Diag.make ~severity code ~func ~pass
    (Printf.sprintf "jump %s -> %s: %s" (Label.to_string src)
       (Label.to_string dst)
       (Replication.Jumps.decision_to_string decision))

(* --- rules over one well-formed function --- *)

let uninit_reads fname func cfg reach instrs =
  let graph =
    Analysis.Dataflow.restrict (Cfg.graph cfg) ~keep:(fun i -> reach.(i))
  in
  let facts = Analysis.Reaching.solve ~graph ~instrs () in
  Analysis.Reaching.uninitialized_uses facts ~instrs ~keep:Reg.is_virt
    ~reachable:(fun i -> reach.(i))
  |> List.map (fun (b, k, r) ->
         Diag.make Diag.Uninit_read ~func:fname ~pass:"lint"
           (Printf.sprintf
              "%s: %s read before initialization on some path (instr %d)"
              (Label.to_string (Func.block func b).label)
              (Reg.to_string r) k))

(* A pure computation into registers none of which is live afterwards.  Cc
   alone does not count as a result: a stale compare is not a store. *)
let dead_stores fname func reach =
  let live = Liveness.compute func in
  let n = Func.num_blocks func in
  let out = ref [] in
  for i = 0 to n - 1 do
    if reach.(i) then
      out :=
        Liveness.fold_backward live
          (fun acc instr ~live_after ->
            if
              Rtl.is_pure instr
              && Liveness.dead_result ~cc:false live_after instr
            then
              Diag.make Diag.Dead_store ~func:fname ~pass:"lint"
                (Format.asprintf "%s: result of %a is never read"
                   (Label.to_string (Func.block func i).label)
                   Rtl.pp_instr instr)
              :: acc
            else acc)
          i ~init:!out
  done;
  List.rev !out

(* Statically decidable conditional branches: constant facts reaching the
   operands of the compare a branch keys on. *)
let const_branches fname func reach instrs =
  let graph = Cfg.graph (Cfg.make func) in
  let facts = Analysis.Copyconst.solve ~graph ~instrs () in
  let out = ref [] in
  Array.iteri
    (fun bi is ->
      if reach.(bi) && Analysis.Copyconst.reached facts.Analysis.Copyconst.fact_in.(bi)
      then begin
        let f = ref facts.Analysis.Copyconst.fact_in.(bi) in
        let cmp = ref None in
        List.iter
          (fun i ->
            (match i with
            | Rtl.Cmp (a, b) ->
              cmp :=
                Some
                  ( Analysis.Copyconst.operand_const !f a,
                    Analysis.Copyconst.operand_const !f b )
            | _ when Reg.Set.mem Reg.Cc (Rtl.defs i) ->
              (* The condition code is clobbered by something we cannot
                 model (e.g. a call); forget the compare. *)
              cmp := None
            | Rtl.Branch (c, l) -> (
              match !cmp with
              | Some (Some x, Some y) ->
                out :=
                  Diag.make ~severity:Diag.Warn Diag.Const_branch ~func:fname
                    ~pass:"lint"
                    (Printf.sprintf "%s: branch to %s is %s"
                       (Label.to_string (Func.block func bi).label)
                       (Label.to_string l)
                       (if Rtl.eval_cond c x y then "always taken"
                        else "never taken"))
                  :: !out
              | _ -> ())
            | _ -> ());
            f := Analysis.Copyconst.step i !f)
          is
      end)
    instrs;
  List.rev !out

(* Control transfers landing on a block that only jumps again, and
   unconditional jumps to the positionally next block. *)
let jump_chains fname func reach =
  let out = ref [] in
  let n = Func.num_blocks func in
  Array.iteri
    (fun bi (b : Func.block) ->
      if reach.(bi) then begin
        List.iter
          (fun instr ->
            List.iter
              (fun l ->
                let ti = Func.index_of_label func l in
                match (Func.block func ti).instrs with
                | [ Rtl.Jump l' ] ->
                  out :=
                    Diag.make Diag.Jump_chain ~func:fname ~pass:"lint"
                      (Printf.sprintf
                         "%s: transfer to %s lands on a jump-only block \
                          (continuing to %s)"
                         (Label.to_string b.label) (Label.to_string l)
                         (Label.to_string l'))
                    :: !out
                | _ -> ())
              (Rtl.targets instr))
          b.instrs;
        match Func.terminator b with
        | Some (Rtl.Jump l)
          when bi + 1 < n && Label.equal l (Func.block func (bi + 1)).label ->
          out :=
            Diag.make Diag.Jump_chain ~func:fname ~pass:"lint"
              (Printf.sprintf
                 "%s: unconditional jump to the next block %s (fall through \
                  instead)"
                 (Label.to_string b.label) (Label.to_string l))
            :: !out
        | _ -> ()
      end)
    (Func.blocks func);
  List.rev !out

let unreachable_blocks fname func reach =
  let out = ref [] in
  Array.iteri
    (fun i ok ->
      if not ok then
        out :=
          Diag.make Diag.Unreachable_code ~func:fname ~pass:"lint"
            (Printf.sprintf "%s: block unreachable from the entry"
               (Label.to_string (Func.block func i).label))
          :: !out)
    reach;
  List.rev !out

let replication_outlook config fname func =
  List.map
    (diag_of_decision ~func:fname ~pass:"lint")
    (Replication.Jumps.explain ~config func)

let check_func ?(config = Replication.Jumps.default_config) func =
  let fname = Func.name func in
  match Check.errors func with
  | _ :: _ as errs ->
    [
      Diag.make Diag.Malformed_ir ~func:fname ~pass:"lint"
        (Printf.sprintf "ill-formed function, lint skipped:\n  %s"
           (String.concat "\n  " errs));
    ]
  | [] -> (
    let cfg = Cfg.make func in
    let reach = Cfg.reachable cfg in
    let instrs =
      Array.map (fun (b : Func.block) -> b.instrs) (Func.blocks func)
    in
    (* A diverging fixpoint is a finding about the function, not a crash:
       surface it as one typed diagnostic and skip the fact-based rules. *)
    match
      uninit_reads fname func cfg reach instrs
      @ dead_stores fname func reach
      @ const_branches fname func reach instrs
    with
    | exception Analysis.Dataflow.Diverged msg ->
      Diag.make Diag.Analysis_diverged ~func:fname ~pass:"lint" msg
      :: jump_chains fname func reach
      @ unreachable_blocks fname func reach
      @ replication_outlook config fname func
    | fact_findings ->
      fact_findings
      @ jump_chains fname func reach
      @ unreachable_blocks fname func reach
      @ replication_outlook config fname func)

let check_prog ?config (prog : Prog.t) =
  List.concat_map (fun f -> check_func ?config f) prog.funcs

type summary = { errors : int; warnings : int }

let summarize diags =
  List.fold_left
    (fun acc (d : Diag.t) ->
      match d.severity with
      | Diag.Err -> { acc with errors = acc.errors + 1 }
      | Diag.Warn -> { acc with warnings = acc.warnings + 1 })
    { errors = 0; warnings = 0 }
    diags
