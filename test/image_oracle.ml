(* The simulated memory with words moved a byte at a time: [Sim.Image]'s
   word accesses as they were before each became one 32-bit access.  A
   word load is four byte loads, normalised to signed 32 bits; a word
   store is four byte stores of the low 32 bits, each marking its own
   page dirty.  Byte accesses, layout and symbols are [Sim.Image]'s own.

   [Interp_oracle] reads and writes memory through this module, so the
   engine-against-reference tests compare the engine's word path with
   this one; test_sim's "image matches byte-wise oracle" property
   compares the two directly, faults and dirty pages included. *)

open Ir
open Sim

exception Fault = Image.Fault

type t = { image : Image.t; data_base : int }

let build ?(size = 4 * 1024 * 1024) ?(data_base = 0x1000) prog =
  { image = Image.build ~size ~data_base prog; data_base }

let size t = Image.size t.image
let symbol t name = Image.symbol t.image name

(* [Sim.Image]'s range check and fault message.  Written without
   [addr + bytes], which overflows for an address near [max_int]. *)
let check t addr bytes what =
  if addr < t.data_base || addr > size t - bytes then
    raise (Fault (Printf.sprintf "%s at 0x%x is out of range" what addr))

let load_byte t addr = Image.load_byte t.image addr
let store_byte t addr v = Image.store_byte t.image addr v

let load_word t addr =
  check t addr 4 "word load";
  let b i = load_byte t (addr + i) in
  Arith.norm (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

let store_word t addr v =
  check t addr 4 "word store";
  let v = v land 0xFFFFFFFF in
  for i = 0 to 3 do
    store_byte t (addr + i) ((v lsr (8 * i)) land 0xff)
  done
