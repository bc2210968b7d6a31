(** The code-replication transformation (paper §4, steps 3–5).

    [splice] replaces the unconditional jump ending block [after] with
    copies of the blocks in [seq] (given by index into the current block
    array), placed positionally right after [after]:

    - consecutive sequence blocks are connected by fall-through: jumps to
      the next sequence block are deleted, conditional branches whose taken
      edge goes to the next sequence block are reversed (step 4);
    - branch targets that were themselves replicated are redirected to their
      copies, favoring forward copies over backward ones (step 5);
    - with [mode = Fallthrough_to f], the last copy falls through to
      original block [f], which must be the block positionally following
      [after];
    - with [mode = Ends_with_return], the last sequence block must end in a
      return or an indirect jump, which is copied verbatim (the latter is
      the paper's section-6 extension: an indirect jump may terminate a
      replication sequence; its jump table is shared, not copied);
    - with [repair_loop], conditional branches of loop blocks that were not
      copied but target a copied block are redirected to the copy
      (step 5's partial-overlap repair).

    The caller is responsible for checking reducibility afterwards and
    rolling back if needed (step 6). *)

type mode = Fallthrough_to of int | Ends_with_return

(** What a splice changed, for updating analyses in place
    ({!Flow.Cfg.splice}, {!Flow.Dom.splice}).  The inserted blocks sit at
    indices [after + 1 .. after + Array.length copy_of]; every block
    above [after] moved up by that many. *)
type edit = {
  after : int;  (** the block whose jump was removed *)
  copy_of : int array;
      (** per inserted block, the index of the block it copies (a
          split-off discontinuity jump counts as a copy of the block it
          was split from) *)
  rewritten : int list;
      (** new indices, ascending, of the loop blocks whose branch step
          5's repair redirected to a copy *)
}

val splice :
  ?repair_loop:Flow.Loops.loop ->
  Flow.Func.t ->
  after:int ->
  seq:int list ->
  mode:mode ->
  Flow.Func.t * edit
