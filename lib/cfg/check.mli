(** IR verifier: structural and semantic invariants of functions and
    programs, used as an always-on pass postcondition by the defensive
    driver ({!Opt.Driver}) and directly by tests.

    Cheap checks ({!errors}, run after every pass):
    - every branch/jump target names an existing block;
    - no transfer instruction occurs in the middle of a block;
    - no indirect jump has an empty target table;
    - the last block does not fall off the end of the function (a
      conditional branch there has no fall-through);
    - [Enter] appears only as the first instruction of the entry block;
    - every [Ret] is immediately preceded by [Leave] and vice versa;
    - the entry block's label is never a branch target.

    Unique block labels and a label index that agrees with positions are
    not checked: {!Func.make} and {!Func.with_blocks} guarantee them.

    Expensive checks (enabled by [~full:true], i.e. [--verify-passes]):
    - {!def_before_use}: every use of a virtual register is preceded by a
      definition on {e every} path from the entry (dominator fast path via
      {!Dom}, full forward must-analysis over the {!Cfg} otherwise).

    Separate pass-aware checks the driver applies where they are
    postconditions: {!unreachable_blocks} (after the unreachable pass) and
    {!no_virtuals} (after register allocation).  {!program_errors} checks
    whole-program invariants: global label uniqueness and unique function
    names. *)

(** All violations found, empty if the function is well-formed.
    [full] (default false) adds the expensive checks. *)
val errors : ?full:bool -> Func.t -> string list

(** Uses of virtual registers that some entry path reaches without a prior
    definition.  Empty when the function has dangling branch targets (the
    cheap checks report those first). *)
val def_before_use : Func.t -> string list

(** Labels of blocks unreachable from the entry: the postcondition of the
    unreachable-code pass.  Empty when the function has dangling targets. *)
val unreachable_blocks : Func.t -> string list

(** Virtual registers still mentioned: the postcondition of register
    allocation. *)
val no_virtuals : Func.t -> string list

(** Whole-program invariants: no label defined in two functions, no two
    functions with the same name. *)
val program_errors : Prog.t -> string list

(** @raise Telemetry.Diag.Error with code [Malformed_ir] listing the
    violations, if any. *)
val assert_ok : Func.t -> unit
