open Ir
open Flow

type mode = Fallthrough_to of int | Ends_with_return

type edit = { after : int; copy_of : int array; rewritten : int list }

(* Split a block's instructions into body and optional terminator. *)
let split_terminator instrs =
  match List.rev instrs with
  | last :: rev_body when Rtl.is_transfer last -> (List.rev rev_body, Some last)
  | _ -> (instrs, None)

let splice ?repair_loop func ~after ~seq ~mode =
  assert (seq <> []);
  let blocks = Func.blocks func in
  let n = Array.length blocks in
  let seq_arr = Array.of_list seq in
  let len = Array.length seq_arr in
  (match mode with
  | Fallthrough_to f -> assert (f = after + 1 && f < n)
  | Ends_with_return -> ());
  (* Fresh labels for the copies. *)
  let copy_labels = Array.init len (fun _ -> Func.fresh_label func) in
  (* Original block index -> ascending positions in the sequence. *)
  let positions = Hashtbl.create 16 in
  Array.iteri
    (fun i bi ->
      Hashtbl.replace positions bi
        (match Hashtbl.find_opt positions bi with
        | Some ps -> ps @ [ i ]
        | None -> [ i ]))
    seq_arr;
  (* Redirect label [l] as seen from copy position [i]: prefer the first
     copy after [i], else the last one before it, else keep [l]. *)
  let retarget_from i l =
    match Func.index_of_label func l with
    | exception Not_found -> l
    | x -> (
      match Hashtbl.find_opt positions x with
      | None -> l
      | Some ps -> (
        match List.find_opt (fun p -> p > i) ps with
        | Some p -> copy_labels.(p)
        | None -> (
          match List.rev (List.filter (fun p -> p < i) ps) with
          | p :: _ -> copy_labels.(p)
          | [] -> l)))
  in
  (* Redirect a label for a block that was not copied: first copy wins. *)
  let retarget_outside l =
    match Func.index_of_label func l with
    | exception Not_found -> l
    | x -> (
      match Hashtbl.find_opt positions x with
      | Some (p :: _) -> copy_labels.(p)
      | Some [] | None -> l)
  in
  let label_of bi = blocks.(bi).Func.label in
  (* Positional fall-through successor in the original layout. *)
  let orig_ft bi =
    if Func.falls_through blocks.(bi) && bi + 1 < n then Some (bi + 1)
    else None
  in
  let make_copy i =
    let bi = seq_arr.(i) in
    let body, term = split_terminator blocks.(bi).Func.instrs in
    let intended_next =
      if i < len - 1 then Some seq_arr.(i + 1)
      else match mode with Fallthrough_to f -> Some f | Ends_with_return -> None
    in
    let target_idx l =
      match Func.index_of_label func l with
      | x -> Some x
      | exception Not_found -> None
    in
    let tail =
      match intended_next with
      | None ->
        (* Last copy of a favoring-returns sequence: copied verbatim. *)
        (match term with
        | Some Rtl.Ret -> [ Rtl.Ret ]
        | Some t -> [ t ]
        | None -> [])
      | Some nxt -> (
        match term with
        | Some (Rtl.Jump l) when target_idx l = Some nxt ->
          [] (* fall through to the next copy *)
        | Some (Rtl.Jump l) -> [ Rtl.Jump l ]
        | Some (Rtl.Branch (c, l)) when target_idx l = Some nxt -> (
          match orig_ft bi with
          | Some ft when ft = nxt ->
            (* Both edges reach the next copy: no branch needed. *)
            []
          | Some ft -> [ Rtl.Branch (Rtl.negate_cond c, label_of ft) ]
          | None ->
            (* A branch always falls through somewhere; keep it and jump. *)
            [ Rtl.Branch (c, l) ])
        | Some (Rtl.Branch (c, l)) -> (
          match orig_ft bi with
          | Some ft when ft = nxt -> [ Rtl.Branch (c, l) ]
          | Some ft ->
            (* Discontinuity (loop completion): restore both edges. *)
            [ Rtl.Branch (c, l); Rtl.Jump (label_of ft) ]
          | None -> [ Rtl.Branch (c, l) ])
        | Some Rtl.Ret -> [ Rtl.Ret ]
        | Some (Rtl.Ijump (r, tbl)) -> [ Rtl.Ijump (r, tbl) ]
        | Some t -> [ t ]
        | None -> (
          match orig_ft bi with
          | Some ft when ft = nxt -> []
          | Some ft -> [ Rtl.Jump (label_of ft) ]
          | None -> []))
    in
    let tail = List.map (Rtl.map_labels (retarget_from i)) tail in
    (* A discontinuity can need both a conditional branch and a jump; they
       must live in separate blocks. *)
    match tail with
    | [ (Rtl.Branch _ as br); (Rtl.Jump _ as j) ] ->
      [
        (bi, { Func.label = copy_labels.(i); instrs = body @ [ br ] });
        (bi, { Func.label = Func.fresh_label func; instrs = [ j ] });
      ]
    | _ -> [ (bi, { Func.label = copy_labels.(i); instrs = body @ tail }) ]
  in
  let made = List.concat_map make_copy (List.init len Fun.id) in
  let copy_of = Array.of_list (List.map fst made) in
  let copies = Array.of_list (List.map snd made) in
  (* Remove the unconditional jump ending [after]; it falls through into the
     first copy. *)
  let after_block =
    let body, term = split_terminator blocks.(after).Func.instrs in
    (match term with
    | Some (Rtl.Jump _) -> ()
    | _ ->
      Telemetry.Diag.error Telemetry.Diag.Internal ~func:(Func.name func)
        ~pass:"replicate" "splice: block %s does not end in Jump"
        (Label.to_string blocks.(after).Func.label));
    { (blocks.(after)) with instrs = body }
  in
  let added = Array.length copies in
  let out =
    Array.concat
      [
        Array.sub blocks 0 after;
        [| after_block |];
        copies;
        Array.sub blocks (after + 1) (n - after - 1);
      ]
  in
  (* Step 5 repair: loop blocks that were not copied but conditionally
     branch to a copied block now branch to the copy. *)
  let rewritten = ref [] in
  (match repair_loop with
  | None -> ()
  | Some loop ->
    let seq_set = List.fold_left (fun s b -> Loops.Int_set.add b s) Loops.Int_set.empty seq in
    Loops.Int_set.iter
      (fun x ->
        if x <> after && not (Loops.Int_set.mem x seq_set) then begin
          let b = blocks.(x) in
          let body, term = split_terminator b.Func.instrs in
          match term with
          | Some (Rtl.Branch (c, l)) ->
            let l' = retarget_outside l in
            if not (Label.equal l l') then begin
              (* Find the block in [out] (position shifted if past the
                 splice) and rewrite its branch. *)
              let pos = if x <= after then x else x + added in
              out.(pos) <- { b with instrs = body @ [ Rtl.Branch (c, l') ] };
              rewritten := pos :: !rewritten
            end
          | Some _ | None -> ()
        end)
      loop.Loops.body);
  ( Func.with_blocks func out,
    { after; copy_of; rewritten = List.rev !rewritten } )
