open Flow

type t = { prog : Prog.t; machine : Ir.Machine.t; max_steps : int; size_cap : int }

let make ?(max_steps = 2_000_000) ?(size_cap = 400) machine prog =
  { prog; machine; max_steps; size_cap }

let applies t func =
  Func.num_instrs func <= t.size_cap
  && Prog.find_func t.prog "main" <> None

(* Observable behaviour of the program with [func] substituted for its
   namesake.  The rest of the program is the unoptimized original: the
   simulator executes raw and mid-pipeline RTL alike. *)
type obs = Ran of string * int | Fault of string | Hung

let observe t func =
  let prog =
    {
      t.prog with
      Prog.funcs =
        List.map
          (fun f ->
            if String.equal (Func.name f) (Func.name func) then func else f)
          t.prog.Prog.funcs;
    }
  in
  match
    let asm = Sim.Asm.assemble t.machine prog in
    Sim.Engine.run ~max_steps:t.max_steps ~input:"" asm prog
  with
  | res -> if res.timed_out then Hung else Ran (res.output, res.exit_code)
  | exception Sim.Interp.Runtime_error msg -> Fault msg

let divergence t ~baseline ~candidate =
  match observe t baseline with
  | Fault _ | Hung -> None (* inconclusive: cannot blame the pass *)
  | Ran (out, code) -> (
    match observe t candidate with
    | Ran (out', code') when String.equal out out' && code = code' -> None
    | Ran (out', code') ->
      Some
        (Printf.sprintf
           "differential oracle: output %S exit %d, expected %S exit %d" out'
           code' out code)
    | Fault msg -> Some (Printf.sprintf "differential oracle: fault: %s" msg)
    | Hung ->
      Some
        (Printf.sprintf
           "differential oracle: no exit within %d steps (baseline exited %d)"
           t.max_steps code))
