(* The balanced-tree liveness that [Analysis.Live] replaced: a [Reg.Set]
   instance of the generic [Dataflow.Solver], kept as the oracle for the
   bitset solver (facts and visit counts). *)

open Ir

let step instr live_after =
  Reg.Set.union (Rtl.uses instr) (Reg.Set.diff live_after (Rtl.defs instr))

let block_transfer instrs live_out = List.fold_right step instrs live_out

module S = Analysis.Dataflow.Solver (struct
  type t = Reg.Set.t

  let equal = Reg.Set.equal
  let join = Reg.Set.union
end)

type t = {
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  stats : Analysis.Dataflow.stats;
}

let solve ?max_visits ~graph ~instrs () =
  let r =
    S.solve ~name:"live" ?max_visits ~direction:Analysis.Dataflow.Backward
      ~graph ~empty:Reg.Set.empty
      ~init:(fun _ -> Reg.Set.empty)
      ~transfer:(fun i out -> block_transfer instrs.(i) out)
      ()
  in
  (* Backward orientation: the solver's [input] is the confluence over
     successors (live-out), its [output] the transferred fact (live-in). *)
  { live_in = r.S.output; live_out = r.S.input; stats = r.S.stats }

(* A bitset view as a [Reg.Set], for comparison. *)
let to_set view = Analysis.Live.Regs.fold Reg.Set.add view Reg.Set.empty

let set_to_string s =
  "{" ^ String.concat "," (List.map Reg.to_string (Reg.Set.elements s)) ^ "}"
