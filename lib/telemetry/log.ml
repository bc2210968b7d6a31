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
  metrics : Metrics.t;  (* counters and histograms *)
}

let make sink =
  {
    sink;
    enabled = sink <> Null;
    started = Unix.gettimeofday ();
    seq = 0;
    buffer = [];
    metrics = (if sink = Null then Metrics.null else Metrics.create ());
  }

let null = make Null
let enabled t = t.enabled
let emitted t = t.seq
let events t = List.rev t.buffer
let metrics t = t.metrics

(* --- JSON encoding --- *)

let fields_of_event = function
  | Pass_begin { func; pass } ->
    ("pass_begin", [ ("func", Json.escape func); ("pass", Json.escape pass) ])
  | Pass_end { func; pass; changed; delta = d; elapsed_ms } ->
    ( "pass_end",
      [
        ("func", Json.escape func);
        ("pass", Json.escape pass);
        ("changed", string_of_bool changed);
        ("instrs_before", string_of_int d.instrs_before);
        ("instrs_after", string_of_int d.instrs_after);
        ("blocks_before", string_of_int d.blocks_before);
        ("blocks_after", string_of_int d.blocks_after);
        ("ujumps_before", string_of_int d.ujumps_before);
        ("ujumps_after", string_of_int d.ujumps_after);
        ("elapsed_ms", Printf.sprintf "%.3f" elapsed_ms);
      ] )
  | Replication_applied { func; jump_from; jump_to; mode; seq; cost; loop_completed }
    ->
    ( "replication_applied",
      [
        ("func", Json.escape func);
        ("jump_from", Json.escape jump_from);
        ("jump_to", Json.escape jump_to);
        ("mode", Json.escape mode);
        ( "seq",
          "[" ^ String.concat "," (List.map string_of_int seq) ^ "]" );
        ("cost", string_of_int cost);
        ("loop_completed", string_of_bool loop_completed);
      ] )
  | Replication_rolled_back { func; jump_from; jump_to; reason } ->
    ( "replication_rolled_back",
      [
        ("func", Json.escape func);
        ("jump_from", Json.escape jump_from);
        ("jump_to", Json.escape jump_to);
        ("reason", Json.escape (reason_to_string reason));
      ] )
  | Fixpoint_iteration { func; iteration; changed } ->
    ( "fixpoint_iteration",
      [
        ("func", Json.escape func);
        ("iteration", string_of_int iteration);
        ("changed", string_of_bool changed);
      ] )
  | Fixpoint_diverged { func; iterations; last_pass } ->
    ( "fixpoint_diverged",
      [
        ("func", Json.escape func);
        ("iterations", string_of_int iterations);
        ("last_pass", Json.escape last_pass);
      ] )
  | Pass_quarantined { func; pass; code; violations } ->
    ( "pass_quarantined",
      [
        ("func", Json.escape func);
        ("pass", Json.escape pass);
        ("code", Json.escape code);
        ( "violations",
          "[" ^ String.concat "," (List.map Json.escape violations) ^ "]" );
      ] )
  | Regalloc_spill { func; reg; round } ->
    ( "regalloc_spill",
      [
        ("func", Json.escape func);
        ("reg", Json.escape reg);
        ("round", string_of_int round);
      ] )
  | Sim_progress { instrs } ->
    ("sim_progress", [ ("instrs", string_of_int instrs) ])
  | Warning { message } -> ("warning", [ ("message", Json.escape message) ])

let event_to_json ~seq ~t_ms ev =
  let kind, fields = fields_of_event ev in
  let fields =
    [ ("seq", string_of_int seq); ("t_ms", Printf.sprintf "%.3f" t_ms);
      ("ev", Json.escape kind) ]
    @ fields
  in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Json.escape k ^ ":" ^ v) fields)
  ^ "}"

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
      output_string oc (event_to_json ~seq ~t_ms ev);
      output_char oc '\n'
  end

let flush t =
  match t.sink with
  | Jsonl oc -> Stdlib.flush oc
  | Null | Memory -> ()
