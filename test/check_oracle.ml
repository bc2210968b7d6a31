(* [Check]'s structural checks as they were written before they became
   one walk per block: a table of the labels seen, a lookup of each label
   in the index, and four walks over each block's instructions.  The
   tests hold [Check.errors] to it, message for message, on corrupted
   functions. *)

open Ir
open Flow

let structural_errors f =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let n = Func.num_blocks f in
  let entry_label = (Func.block f 0).label in
  let seen_labels = Hashtbl.create (n * 2) in
  for i = 0 to n - 1 do
    let b = Func.block f i in
    (if Hashtbl.mem seen_labels b.label then
       err "%a: duplicate block label" Label.pp b.label
     else Hashtbl.add seen_labels b.label ());
    (match Func.index_of_label f b.label with
    | j when j <> i ->
      err "%a: label index maps to block %d, not %d" Label.pp b.label j i
    | _ -> ()
    | exception Not_found ->
      err "%a: label missing from the label index" Label.pp b.label);
    let rec scan = function
      | [] -> ()
      | [ _last ] -> ()
      | instr :: rest ->
        if Rtl.is_transfer instr then
          err "%a: transfer %a in the middle of the block" Label.pp b.label
            Rtl.pp_instr instr;
        scan rest
    in
    scan b.instrs;
    List.iter
      (fun instr ->
        (match instr with
        | Rtl.Ijump (_, table) when Array.length table = 0 ->
          err "%a: indirect jump with an empty target table" Label.pp b.label
        | _ -> ());
        List.iter
          (fun l ->
            (match Func.index_of_label f l with
            | _ -> ()
            | exception Not_found ->
              err "%a: target %a does not exist" Label.pp b.label Label.pp l);
            if Label.equal l entry_label then
              err "%a: branch to the entry block" Label.pp b.label)
          (Rtl.targets instr))
      b.instrs;
    List.iteri
      (fun k instr ->
        match instr with
        | Rtl.Enter _ when not (i = 0 && k = 0) ->
          err "%a: Enter outside function entry" Label.pp b.label
        | Rtl.Enter _ | _ -> ())
      b.instrs;
    let rec pairs = function
      | Rtl.Leave :: Rtl.Ret :: rest -> pairs rest
      | Rtl.Leave :: rest ->
        err "%a: Leave not followed by Ret" Label.pp b.label;
        pairs rest
      | Rtl.Ret :: rest ->
        err "%a: Ret without preceding Leave" Label.pp b.label;
        pairs rest
      | _ :: rest -> pairs rest
      | [] -> ()
    in
    pairs b.instrs
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
