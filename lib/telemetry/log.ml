type reason = Irreducible | Size_cap | Indirect_gated | Loop_copied | No_path

let reason_to_string = function
  | Irreducible -> "irreducible"
  | Size_cap -> "size-cap"
  | Indirect_gated -> "indirect-gated"
  | Loop_copied -> "loop-copied"
  | No_path -> "no-path"

type delta = {
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
  ujumps_before : int;
  ujumps_after : int;
}

type event =
  | Pass_begin of { func : string; pass : string }
  | Pass_end of {
      func : string;
      pass : string;
      changed : bool;
      delta : delta;
      elapsed_ms : float;
    }
  | Replication_applied of {
      func : string;
      jump_from : string;
      jump_to : string;
      mode : string;
      seq : int list;
      cost : int;
      loop_completed : bool;
    }
  | Replication_rolled_back of {
      func : string;
      jump_from : string;
      jump_to : string;
      reason : reason;
    }
  | Fixpoint_iteration of { func : string; iteration : int; changed : bool }
  | Fixpoint_diverged of { func : string; iterations : int; last_pass : string }
  | Pass_quarantined of {
      func : string;
      pass : string;
      code : string;
      violations : string list;
    }
  | Regalloc_spill of { func : string; reg : string; round : int }
  | Sim_progress of { instrs : int }
  | Warning of { message : string }

type sink = Null | Jsonl of out_channel | Memory

type t = {
  sink : sink;
  enabled : bool;
  started : float;  (* Unix epoch seconds at creation *)
  mutable seq : int;
  mutable buffer : event list;  (* Memory sink, newest first *)
}

let make sink =
  {
    sink;
    enabled = sink <> Null;
    started = Unix.gettimeofday ();
    seq = 0;
    buffer = [];
  }

let null = make Null
let enabled t = t.enabled
let emitted t = t.seq
let events t = List.rev t.buffer

(* --- JSON encoding --- *)

let fields_of_event =
  let str s = Json.Str s and int n = Json.Int n and bool b = Json.Bool b in
  function
  | Pass_begin { func; pass } ->
    ("pass_begin", [ ("func", str func); ("pass", str pass) ])
  | Pass_end { func; pass; changed; delta = d; elapsed_ms } ->
    ( "pass_end",
      [
        ("func", str func);
        ("pass", str pass);
        ("changed", bool changed);
        ("instrs_before", int d.instrs_before);
        ("instrs_after", int d.instrs_after);
        ("blocks_before", int d.blocks_before);
        ("blocks_after", int d.blocks_after);
        ("ujumps_before", int d.ujumps_before);
        ("ujumps_after", int d.ujumps_after);
        ("elapsed_ms", Json.Fixed (3, elapsed_ms));
      ] )
  | Replication_applied { func; jump_from; jump_to; mode; seq; cost; loop_completed }
    ->
    ( "replication_applied",
      [
        ("func", str func);
        ("jump_from", str jump_from);
        ("jump_to", str jump_to);
        ("mode", str mode);
        ("seq", Json.Arr (List.map int seq));
        ("cost", int cost);
        ("loop_completed", bool loop_completed);
      ] )
  | Replication_rolled_back { func; jump_from; jump_to; reason } ->
    ( "replication_rolled_back",
      [
        ("func", str func);
        ("jump_from", str jump_from);
        ("jump_to", str jump_to);
        ("reason", str (reason_to_string reason));
      ] )
  | Fixpoint_iteration { func; iteration; changed } ->
    ( "fixpoint_iteration",
      [
        ("func", str func);
        ("iteration", int iteration);
        ("changed", bool changed);
      ] )
  | Fixpoint_diverged { func; iterations; last_pass } ->
    ( "fixpoint_diverged",
      [
        ("func", str func);
        ("iterations", int iterations);
        ("last_pass", str last_pass);
      ] )
  | Pass_quarantined { func; pass; code; violations } ->
    ( "pass_quarantined",
      [
        ("func", str func);
        ("pass", str pass);
        ("code", str code);
        ("violations", Json.Arr (List.map str violations));
      ] )
  | Regalloc_spill { func; reg; round } ->
    ( "regalloc_spill",
      [ ("func", str func); ("reg", str reg); ("round", int round) ] )
  | Sim_progress { instrs } -> ("sim_progress", [ ("instrs", int instrs) ])
  | Warning { message } -> ("warning", [ ("message", str message) ])

let event_to_json ~seq ~t_ms ev =
  let kind, fields = fields_of_event ev in
  Json.Obj
    (("seq", Json.Int seq) :: ("t_ms", Json.Fixed (3, t_ms))
    :: ("ev", Json.Str kind) :: fields)

let emit t f =
  if t.enabled then begin
    let ev = f () in
    let seq = t.seq in
    t.seq <- seq + 1;
    match t.sink with
    | Null -> ()
    | Memory -> t.buffer <- ev :: t.buffer
    | Jsonl oc ->
      let t_ms = (Unix.gettimeofday () -. t.started) *. 1000.0 in
      output_string oc (Json.to_string (event_to_json ~seq ~t_ms ev));
      output_char oc '\n'
  end

let flush t =
  match t.sink with
  | Jsonl oc -> Stdlib.flush oc
  | Null | Memory -> ()
