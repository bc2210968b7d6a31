open Ir

type block = { label : Label.t; instrs : Rtl.instr list }

module Label_tbl = Hashtbl.Make (struct
  type t = Label.t

  let equal = Label.equal
  let hash = Label.hash
end)

type t = {
  name : string;
  blocks : block array;
  lsupply : Label.Supply.t;
  vsupply : Reg.Supply.t;
  index : int Label_tbl.t;
  encoding : Encode.plan option;
      (* advisory branch-displacement plan; valid only for this exact
         block array, so [with_blocks] drops it *)
}

let build_index blocks =
  let index = Label_tbl.create (Array.length blocks) in
  Array.iteri
    (fun i b ->
      if Label_tbl.mem index b.label then
        invalid_arg
          (Printf.sprintf "Func.make: duplicate label %s"
             (Label.to_string b.label));
      Label_tbl.add index b.label i)
    blocks;
  index

let make ~name ~blocks ~lsupply ~vsupply =
  if Array.length blocks = 0 then invalid_arg "Func.make: no blocks";
  { name; blocks; lsupply; vsupply; index = build_index blocks; encoding = None }

let name f = f.name
let blocks f = f.blocks
let lsupply f = f.lsupply
let vsupply f = f.vsupply
let encoding f = f.encoding
let set_encoding f encoding = { f with encoding }

let with_blocks f blocks =
  if Array.length blocks = 0 then invalid_arg "Func.with_blocks: no blocks";
  { f with blocks; index = build_index blocks; encoding = None }

let equal_blocks a b =
  a.blocks == b.blocks
  || Array.length a.blocks = Array.length b.blocks
     && Array.for_all2
          (fun x y ->
            Label.equal x.label y.label
            && List.equal Rtl.equal_instr x.instrs y.instrs)
          a.blocks b.blocks

let num_blocks f = Array.length f.blocks
let block f i = f.blocks.(i)

let index_of_label f l =
  match Label_tbl.find_opt f.index l with
  | Some i -> i
  | None -> raise Not_found

let fresh_label f = Label.Supply.fresh f.lsupply
let fresh_reg f = Reg.Supply.fresh f.vsupply

let rec last_transfer = function
  | [] -> None
  | [ last ] -> if Rtl.is_transfer last then Some last else None
  | _ :: rest -> last_transfer rest

let terminator b = last_transfer b.instrs

let rec ends_open = function
  | [] -> true
  | [ (Rtl.Jump _ | Rtl.Ijump _ | Rtl.Ret) ] -> false
  | [ _ ] -> true
  | _ :: rest -> ends_open rest

let falls_through b = ends_open b.instrs

let block_size b = List.length b.instrs
let num_instrs f = Array.fold_left (fun n b -> n + block_size b) 0 f.blocks
let map_blocks g f = with_blocks f (Array.map g f.blocks)

let map_instrs g f =
  map_blocks (fun b -> { b with instrs = g b.instrs }) f

let pp ppf f =
  Fmt.pf ppf "@[<v>%s:" f.name;
  Array.iter
    (fun b ->
      Fmt.pf ppf "@,%a:" Label.pp b.label;
      List.iter (fun i -> Fmt.pf ppf "@,  %a" Rtl.pp_instr i) b.instrs)
    f.blocks;
  Fmt.pf ppf "@]"

let to_string f = Fmt.str "%a" pp f
