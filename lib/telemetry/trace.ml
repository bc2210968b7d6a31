(* Chrome/Perfetto trace-event collector.

   Collects complete spans ("X"), instant events ("i") and metadata
   ("M") in the parent process (appends are mutex-protected) and writes
   the standard trace-event JSON object that chrome://tracing and
   ui.perfetto.dev load directly.  Timestamps are microseconds since the
   trace was created; the whole sweep is pid 1 and tids are logical
   lanes (0 = supervisor, 1..N = pool worker processes). *)

type ev = {
  e_name : string;
  e_cat : string;
  e_ph : char;  (* 'X' complete, 'i' instant, 'M' metadata *)
  e_ts : float;  (* microseconds since trace start *)
  e_dur : float;  (* 'X' only *)
  e_tid : int;
  e_args : (string * Json.t) list;
}

type t = {
  mu : Mutex.t;
  started : float;
  mutable evs : ev list;  (* newest first *)
  mutable count : int;
}

let pid = 1

let create () =
  { mu = Mutex.create (); started = Unix.gettimeofday (); evs = []; count = 0 }

let now_us t = (Unix.gettimeofday () -. t.started) *. 1e6

let push t ev =
  Mutex.lock t.mu;
  t.evs <- ev :: t.evs;
  t.count <- t.count + 1;
  Mutex.unlock t.mu

let events t =
  Mutex.lock t.mu;
  let n = t.count in
  Mutex.unlock t.mu;
  n

let complete t ~tid ?(cat = "task") ?(args = []) ~name ~ts_us ~dur_us () =
  push t
    {
      e_name = name;
      e_cat = cat;
      e_ph = 'X';
      e_ts = ts_us;
      e_dur = Float.max 0.0 dur_us;
      e_tid = tid;
      e_args = args;
    }

let instant t ~tid ?(cat = "supervisor") ?(args = []) name =
  push t
    {
      e_name = name;
      e_cat = cat;
      e_ph = 'i';
      e_ts = now_us t;
      e_dur = 0.0;
      e_tid = tid;
      e_args = args;
    }

let thread_name t ~tid name =
  push t
    {
      e_name = "thread_name";
      e_cat = "";
      e_ph = 'M';
      e_ts = 0.0;
      e_dur = 0.0;
      e_tid = tid;
      e_args = [ ("name", Json.Str name) ];
    }

let process_name t name =
  push t
    {
      e_name = "process_name";
      e_cat = "";
      e_ph = 'M';
      e_ts = 0.0;
      e_dur = 0.0;
      e_tid = 0;
      e_args = [ ("name", Json.Str name) ];
    }

let ev_to_json e =
  let base =
    [
      ("name", Json.Str e.e_name);
      ("ph", Json.Str (String.make 1 e.e_ph));
      ("ts", Json.Fixed (1, e.e_ts));
      ("pid", Json.Int pid);
      ("tid", Json.Int e.e_tid);
    ]
  in
  let base = if e.e_cat = "" then base else base @ [ ("cat", Json.Str e.e_cat) ] in
  let base =
    if e.e_ph = 'X' then base @ [ ("dur", Json.Fixed (1, e.e_dur)) ]
    else base
  in
  (* Instant events need a scope; "t" (thread) keeps them on their lane. *)
  let base = if e.e_ph = 'i' then base @ [ ("s", Json.Str "t") ] else base in
  let base =
    if e.e_args = [] then base else base @ [ ("args", Json.Obj e.e_args) ]
  in
  Json.Obj base

let to_json t =
  Mutex.lock t.mu;
  let evs = List.rev t.evs in
  Mutex.unlock t.mu;
  (* Stable sort by timestamp (metadata first at ts 0) keeps viewers and
     diff-based tests happy; arrival order breaks ties. *)
  let evs = List.stable_sort (fun a b -> compare a.e_ts b.e_ts) evs in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map ev_to_json evs));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write t oc =
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n'
