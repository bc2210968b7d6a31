(* Branch-displacement encoding for the CISC machine.

   The fixed instruction-size model gives every Branch/Jump four bytes.
   A real m68020 picks between an 8-bit, 16-bit and 32-bit displacement,
   and the classical way to pick is an iterative relaxation that starts
   everything short and grows instructions until the assignment is
   stable — worst-case quadratic.  This module implements the
   fixpoint-free linear-time alternative (Dickson's single-pass
   pessimistic assignment):

   1. assume every eligible transfer takes its LONGEST form and compute
      the resulting ("pessimistic") addresses in one prefix sum;
   2. for each eligible transfer, measure the displacement to its target
      under those addresses and commit to the smallest form that fits.

   Committing a smaller form only ever shrinks the code between a
   transfer and its target, so every real displacement is no larger in
   magnitude than the pessimistic one it was checked against — the
   chosen forms remain valid without iteration.  The price is that a
   displacement just past a form's range under pessimistic addresses
   (but inside it under final addresses) keeps the bigger form; that
   conservatism is the whole trade, and in this corpus it costs nothing
   measurable. *)

type form = Short | Word | Long

let form_bytes = function Short -> 2 | Word -> 4 | Long -> 6

let form_name = function Short -> "short" | Word -> "word" | Long -> "long"

(* Only direct Branch/Jump get a displacement field.  Ijump goes through
   a table of absolute entries and Call through a linker-resolved
   absolute, so both keep their fixed encodings. *)
let eligible = function
  | Rtl.Branch _ | Rtl.Jump _ -> true
  | Rtl.Ijump _ | Rtl.Call _ | Rtl.Move _ | Rtl.Lea _ | Rtl.Binop _
  | Rtl.Unop _ | Rtl.Cmp _ | Rtl.Ret | Rtl.Enter _ | Rtl.Leave | Rtl.Nop ->
    false

type plan = {
  forms : form option array;
      (* per linear index; [None] for non-eligible instructions *)
  sizes : int array;  (* per linear index, eligible forms applied *)
  total : int;  (* sum of [sizes] *)
  fixed_total : int;  (* what the fixed-size model would have produced *)
  shorts : int;
  words : int;
  longs : int;
}

let length p = Array.length p.sizes

let sizes p = Array.copy p.sizes

(* The displacement is measured from the start of the transfer, so a
   forward span includes the transfer's own (pessimistic) size; the
   commit step can therefore only shrink it. *)
let fits disp = function
  | Short -> disp >= -127 && disp <= 127
  | Word -> disp >= -32767 && disp <= 32767
  | Long -> true

let pick disp =
  if fits disp Short then Short else if fits disp Word then Word else Long

let solve machine code label_pos =
  let n = Array.length code in
  let fixed_size = Machine.instr_size machine in
  let target k =
    match code.(k) with
    | Rtl.Branch (_, l) | Rtl.Jump l -> Label.Map.find_opt l label_pos
    | _ -> None
  in
  (* Pass 1: pessimistic addresses with every eligible transfer Long. *)
  let pess = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    let sz =
      if eligible code.(k) then form_bytes Long else fixed_size code.(k)
    in
    pess.(k + 1) <- pess.(k) + sz
  done;
  (* Pass 2: commit the smallest form that fits pessimistically. *)
  let forms = Array.make n None in
  let sizes = Array.make n 0 in
  let shorts = ref 0 and words = ref 0 and longs = ref 0 in
  let total = ref 0 and fixed_total = ref 0 in
  for k = 0 to n - 1 do
    let sz =
      if eligible code.(k) then begin
        let f =
          match target k with
          | Some t -> pick (pess.(t) - pess.(k))
          | None -> Word (* dangling label: keep the fixed encoding *)
        in
        (match f with
        | Short -> incr shorts
        | Word -> incr words
        | Long -> incr longs);
        forms.(k) <- Some f;
        form_bytes f
      end
      else fixed_size code.(k)
    in
    sizes.(k) <- sz;
    total := !total + sz;
    fixed_total := !fixed_total + fixed_size code.(k)
  done;
  {
    forms;
    sizes;
    total = !total;
    fixed_total = !fixed_total;
    shorts = !shorts;
    words = !words;
    longs = !longs;
  }

(* A plan is only meaningful against the exact code array it was solved
   for.  The caller (the assembler) re-linearizes, so verify shape:
   same length, and a form exactly where an eligible instruction sits. *)
let matches p code =
  Array.length code = Array.length p.sizes
  && (let ok = ref true in
      Array.iteri
        (fun k i ->
          match p.forms.(k) with
          | Some _ -> if not (eligible i) then ok := false
          | None -> if eligible i then ok := false)
        code;
      !ok)
