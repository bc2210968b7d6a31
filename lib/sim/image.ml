type t = {
  mem : Bytes.t;
  symbols : (string, int) Hashtbl.t;
  data_base : int;
  dirty : Bytes.t;  (** one flag byte per page of [mem] *)
  mutable dirty_pages : int list;
}

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

let size t = Bytes.length t.mem

(* Dirty-page accounting: every mutation marks the 4 KiB pages it
   touches, so a scratch rebuild only has to zero what the previous run
   actually wrote instead of the whole multi-megabyte memory. *)
let page_bits = 12

let page_size = 1 lsl page_bits

let touch t addr =
  let p = addr lsr page_bits in
  if Bytes.get t.dirty p = '\000' then begin
    Bytes.set t.dirty p '\001';
    t.dirty_pages <- p :: t.dirty_pages
  end

let check t addr bytes what =
  if addr < t.data_base || addr + bytes > Bytes.length t.mem then
    fault "%s at 0x%x is out of range" what addr

(* A word moves as one little-endian 32-bit access; [Int32.to_int]
   sign-extends bit 31, which is [Arith.norm] of the four bytes. *)
let load_word t addr =
  check t addr 4 "word load";
  Int32.to_int (Bytes.get_int32_le t.mem addr)

let load_byte t addr =
  check t addr 1 "byte load";
  Char.code (Bytes.get t.mem addr)

let store_word t addr v =
  check t addr 4 "word store";
  touch t addr;
  touch t (addr + 3);
  Bytes.set_int32_le t.mem addr (Int32.of_int v)

let store_byte t addr v =
  check t addr 1 "byte store";
  touch t addr;
  Bytes.set t.mem addr (Char.chr (v land 0xff))

let populate t (prog : Flow.Prog.t) =
  let cursor = ref t.data_base in
  (* First pass: assign addresses (4-byte aligned). *)
  List.iter
    (fun (d : Flow.Prog.data) ->
      Hashtbl.replace t.symbols d.dname !cursor;
      cursor := (!cursor + d.dsize + 3) land lnot 3)
    prog.globals;
  (* Second pass: write initializers (Addr items may be forward refs). *)
  List.iter
    (fun (d : Flow.Prog.data) ->
      let addr = ref (Hashtbl.find t.symbols d.dname) in
      List.iter
        (fun (item : Flow.Prog.init_item) ->
          match item with
          | Word v ->
            store_word t !addr v;
            addr := !addr + 4
          | Bytes s ->
            let len = String.length s in
            for p = !addr lsr page_bits to (!addr + len - 1) lsr page_bits do
              if Bytes.get t.dirty p = '\000' then begin
                Bytes.set t.dirty p '\001';
                t.dirty_pages <- p :: t.dirty_pages
              end
            done;
            Bytes.blit_string s 0 t.mem !addr len;
            addr := !addr + len
          | Addr sym -> (
            match Hashtbl.find_opt t.symbols sym with
            | Some a ->
              store_word t !addr a;
              addr := !addr + 4
            | None -> fault "initializer refers to unknown symbol %s" sym)
          | Zeros n -> addr := !addr + n)
        d.dinit)
    prog.globals;
  t

let npages size = (size + page_size - 1) / page_size

let build ?(size = 4 * 1024 * 1024) ?(data_base = 0x1000) (prog : Flow.Prog.t)
    =
  populate
    {
      mem = Bytes.make size '\000';
      symbols = Hashtbl.create 64;
      data_base;
      dirty = Bytes.make (npages size) '\000';
      dirty_pages = [];
    }
    prog

(* The scratch slot chains builds within the process: each
   [build_scratch] zeroes exactly the pages its predecessor dirtied and
   hands the buffer to the new image.  Parallel sweeps run in separate
   worker processes, so one slot per process is all there is. *)
let scratch : t option ref = ref None

let build_scratch ?(size = 4 * 1024 * 1024) ?(data_base = 0x1000)
    (prog : Flow.Prog.t) =
  match !scratch with
  | Some prev when Bytes.length prev.mem = size && prev.data_base = data_base
    ->
    List.iter
      (fun p ->
        let base = p lsl page_bits in
        Bytes.fill prev.mem base (min page_size (size - base)) '\000';
        Bytes.set prev.dirty p '\000')
      prev.dirty_pages;
    let t =
      {
        mem = prev.mem;
        symbols = Hashtbl.create 64;
        data_base;
        dirty = prev.dirty;
        dirty_pages = [];
      }
    in
    scratch := Some t;
    populate t prog
  | _ ->
    let t = build ~size ~data_base prog in
    scratch := Some t;
    t

let symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some a -> a
  | None -> raise Not_found
