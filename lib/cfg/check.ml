open Ir

(* --- cheap structural checks --- *)

(* One walk over each block's instructions.  Its messages go to four
   lists, emitted a block at a time in this order: mid-block transfers,
   targets, [Enter], [Leave]/[Ret] pairing ([Leave] and [Ret] occur only
   as the adjacent pair [Leave; Ret]).  Labels need no check:
   [Func.make] and [Func.with_blocks] reject a duplicate label and index
   every label at its block. *)
let structural_errors f =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let n = Func.num_blocks f in
  let entry_label = (Func.block f 0).label in
  for i = 0 to n - 1 do
    let b = Func.block f i in
    let mid = ref [] and targets = ref [] in
    let enter = ref [] and pair = ref [] in
    let berr acc fmt =
      Format.kasprintf (fun s -> acc := s :: !acc) ("%a: " ^^ fmt) Label.pp
        b.label
    in
    (* [leave]: the previous instruction is a [Leave] not yet paired. *)
    let rec walk k leave = function
      | [] -> if leave then berr pair "Leave not followed by Ret"
      | instr :: rest ->
        if rest <> [] && Rtl.is_transfer instr then
          berr mid "transfer %a in the middle of the block" Rtl.pp_instr instr;
        (match instr with
        | Rtl.Ijump (_, table) when Array.length table = 0 ->
          berr targets "indirect jump with an empty target table"
        | _ -> ());
        List.iter
          (fun l ->
            (match Func.index_of_label f l with
            | _ -> ()
            | exception Not_found ->
              berr targets "target %a does not exist" Label.pp l);
            if Label.equal l entry_label then
              berr targets "branch to the entry block")
          (Rtl.targets instr);
        (match instr with
        | Rtl.Enter _ when not (i = 0 && k = 0) ->
          berr enter "Enter outside function entry"
        | _ -> ());
        match instr with
        | Rtl.Ret when leave -> walk (k + 1) false rest
        | _ ->
          if leave then berr pair "Leave not followed by Ret";
          (match instr with
          | Rtl.Ret -> berr pair "Ret without preceding Leave"
          | _ -> ());
          walk (k + 1) (match instr with Rtl.Leave -> true | _ -> false) rest
    in
    walk 0 false b.instrs;
    errs := !pair @ !enter @ !targets @ !mid @ !errs
  done;
  (if n > 0 then
     let last = Func.block f (n - 1) in
     match Func.terminator last with
     | Some (Rtl.Branch _) ->
       err "%a: conditional branch in the last block has no fall-through"
         Label.pp last.label
     | _ ->
       if Func.falls_through last then
         err "%a: last block falls off the end" Label.pp last.label);
  List.rev !errs

(* The graph-level checks below need every target to resolve; when one
   dangles, [Cfg.make] would raise, and the structural errors already say
   what is wrong. *)
let targets_resolve f =
  Array.for_all
    (fun (b : Func.block) ->
      List.for_all
        (fun instr ->
          List.for_all
            (fun l ->
              match Func.index_of_label f l with
              | _ -> true
              | exception Not_found -> false)
            (Rtl.targets instr))
        b.instrs)
    (Func.blocks f)

let unreachable_blocks f =
  if not (targets_resolve f) then []
  else begin
    let reach = Cfg.reachable (Cfg.make f) in
    let errs = ref [] in
    Array.iteri
      (fun i ok ->
        if not ok then
          errs :=
            Printf.sprintf "%s: block unreachable from the entry"
              (Label.to_string (Func.block f i).label)
            :: !errs)
      reach;
    List.rev !errs
  end

let no_virtuals f =
  let errs = ref [] in
  Array.iter
    (fun (b : Func.block) ->
      List.iter
        (fun instr ->
          Reg.Set.iter
            (fun r ->
              if Reg.is_virt r then
                errs :=
                  Printf.sprintf "%s: virtual register %s survives allocation"
                    (Label.to_string b.label) (Reg.to_string r)
                  :: !errs)
            (Reg.Set.union (Rtl.uses instr) (Rtl.defs instr)))
        b.instrs)
    (Func.blocks f);
  List.rev !errs

(* --- def-before-use of virtual registers on every path --- *)

let def_before_use f =
  if not (targets_resolve f) then []
  else begin
    let cfg = Cfg.make f in
    let reach = Cfg.reachable cfg in
    (* Restrict the graph to reachable blocks so facts on dead edges cannot
       weaken the must-analysis. *)
    let graph =
      Analysis.Dataflow.restrict (Cfg.graph cfg) ~keep:(fun i -> reach.(i))
    in
    let instrs =
      Array.map (fun (b : Func.block) -> b.instrs) (Func.blocks f)
    in
    let facts = Analysis.Reaching.solve ~graph ~instrs () in
    Analysis.Reaching.uninitialized_uses facts ~instrs ~keep:Reg.is_virt
      ~reachable:(fun i -> reach.(i))
    |> List.map (fun (b, _, r) ->
           Printf.sprintf
             "%s: virtual register %s used before definition on some path"
             (Label.to_string (Func.block f b).label)
             (Reg.to_string r))
  end

let errors ?(full = false) f =
  let cheap = structural_errors f in
  if full && cheap = [] then def_before_use f else cheap

(* --- whole-program invariants --- *)

let program_errors (prog : Prog.t) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let fnames = Hashtbl.create 16 in
  let labels : (Label.t, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let name = Func.name f in
      (if Hashtbl.mem fnames name then err "duplicate function %s" name
       else Hashtbl.add fnames name ());
      Array.iter
        (fun (b : Func.block) ->
          match Hashtbl.find_opt labels b.label with
          | Some other when other <> name ->
            err "label %a defined in both %s and %s" Label.pp b.label other
              name
          | Some _ -> () (* within-function duplicates: structural check *)
          | None -> Hashtbl.add labels b.label name)
        (Func.blocks f))
    prog.funcs;
  List.rev !errs

let assert_ok f =
  match errors f with
  | [] -> ()
  | errs ->
    raise
      (Telemetry.Diag.Error
         (Telemetry.Diag.make Telemetry.Diag.Malformed_ir ~func:(Func.name f)
            ~pass:""
            (Printf.sprintf "ill-formed function:\n  %s"
               (String.concat "\n  " errs))))
