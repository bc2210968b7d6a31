(* Offline reporting over the bench sweep's machine-readable outputs, and
   the one place the paper's Tables 4-6 and §5.2 statistics are computed.

   Everything here is IO-free: [parse_results] takes the *contents* of a
   BENCH_results.json document, the renderers return strings, and
   [dat_files] returns (filename, contents) pairs — the jumprepc [report]
   subcommand owns the file handling, and bench's [-t 4|5|6|bb] print the
   same sections over rows measured in-process. *)

module Json = Telemetry.Json

type cache_row = {
  cr_config : string;
  cr_size_kb : int;
  cr_assoc : int;
  cr_ctx : bool;
  cr_miss : float;
  cr_fetch : int;
}

type row = {
  program : string;
  level : string;
  machine : string;
  static_instrs : int;
  static_ujumps : int;
  static_nops : int;
  code_bytes : int;
  dyn_instrs : int;
  dyn_ujumps : int;
  dyn_nops : int;
  dyn_transfers : int;
  output_ok : bool;
  timed_out : bool;
  caches : cache_row list;
}

type doc = { rows : row list; counters : (string * int) list }

(* --- parsing --- *)

exception Bad of string

let get name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing or mistyped field %S" name))

let cache_of_json j =
  {
    cr_config = get "config" Json.get_string j;
    cr_size_kb = get "size_kb" Json.get_int j;
    cr_assoc = get "assoc" Json.get_int j;
    cr_ctx = get "context_switches" Json.get_bool j;
    cr_miss = get "miss_ratio" Json.get_float j;
    cr_fetch = get "fetch_cost" Json.get_int j;
  }

let row_of_json j =
  {
    program = get "program" Json.get_string j;
    level = get "level" Json.get_string j;
    machine = get "machine" Json.get_string j;
    static_instrs = get "static_instrs" Json.get_int j;
    static_ujumps = get "static_ujumps" Json.get_int j;
    static_nops = get "static_nops" Json.get_int j;
    (* Absent in pre-displacement documents: comparisons against an old
       sweep must still parse, so fall back to 0 (sections that need
       code size skip rows without it). *)
    code_bytes =
      Option.value ~default:0
        (Option.bind (Json.member "code_bytes" j) Json.get_int);
    dyn_instrs = get "dyn_instrs" Json.get_int j;
    dyn_ujumps = get "dyn_ujumps" Json.get_int j;
    dyn_nops = get "dyn_nops" Json.get_int j;
    dyn_transfers = get "dyn_transfers" Json.get_int j;
    output_ok = get "output_ok" Json.get_bool j;
    timed_out = get "timed_out" Json.get_bool j;
    caches = List.map cache_of_json (get "caches" Json.to_list j);
  }

let parse_results contents =
  match Json.parse contents with
  | Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  | Ok j -> (
    try
      let rows =
        match Option.bind (Json.member "results" j) Json.to_list with
        | Some l -> List.map row_of_json l
        | None -> raise (Bad "missing \"results\" array")
      in
      let counters =
        match Json.member "counters" j with
        | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.get_int v))
            kvs
        | _ -> []
      in
      Ok { rows; counters }
    with Bad m -> Error m)

(* --- statistics over parsed rows --- *)

let levels = [ "SIMPLE"; "LOOPS"; "JUMPS" ]

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

let change now base =
  100.0 *. (float_of_int now -. float_of_int base) /. float_of_int (max 1 base)

let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b)

let instrs_between_branches r =
  float_of_int r.dyn_instrs /. float_of_int (max 1 r.dyn_transfers)

(* First-appearance order, so reports list machines/programs the way the
   sweep emitted them (suite order). *)
let distinct key rows =
  List.rev
    (List.fold_left
       (fun acc r ->
         let k = key r in
         if List.mem k acc then acc else k :: acc)
       [] rows)

let machines doc = distinct (fun r -> r.machine) doc.rows
let programs doc = distinct (fun r -> r.program) doc.rows

let find doc ~program ~level ~machine =
  List.find_opt
    (fun r -> r.program = program && r.level = level && r.machine = machine)
    doc.rows

(* Programs measured at all three levels on [machine] — a task that
   failed under chaos drops out of every per-program comparison rather
   than skewing it. *)
let complete_programs doc machine =
  List.filter
    (fun p ->
      List.for_all
        (fun level -> find doc ~program:p ~level ~machine <> None)
        levels)
    (programs doc)

(* [f] of each complete program's row at [level], in program order. *)
let per_program doc ~machine ~level f =
  List.filter_map
    (fun p -> Option.map f (find doc ~program:p ~level ~machine))
    (complete_programs doc machine)

let triple doc ~program ~machine =
  match
    ( find doc ~program ~level:"SIMPLE" ~machine,
      find doc ~program ~level:"LOOPS" ~machine,
      find doc ~program ~level:"JUMPS" ~machine )
  with
  | Some s, Some l, Some j -> Some (s, l, j)
  | _ -> None

(* The paper's method: the mean of the per-program changes, not the
   change of the totals. *)
let mean_change doc ~machine ~level field =
  mean
    (List.filter_map
       (fun p ->
         match
           ( find doc ~program:p ~level:"SIMPLE" ~machine,
             find doc ~program:p ~level ~machine )
         with
         | Some s, Some r -> Some (change (field r) (field s))
         | _ -> None)
       (complete_programs doc machine))

(* Table 5's means: static LOOPS, static JUMPS, dynamic LOOPS, dynamic
   JUMPS. *)
let table5_means doc machine =
  let m = mean_change doc ~machine in
  let static r = r.static_instrs and dynamic r = r.dyn_instrs in
  ( m ~level:"LOOPS" static,
    m ~level:"JUMPS" static,
    m ~level:"LOOPS" dynamic,
    m ~level:"JUMPS" dynamic )

let cache doc ~program ~level ~machine ~kb ~ctx =
  Option.bind (find doc ~program ~level ~machine) (fun r ->
      List.find_opt (fun c -> c.cr_size_kb = kb && c.cr_ctx = ctx) r.caches)

let cache_delta doc ~machine ~kb ~ctx ~level what =
  mean
    (List.filter_map
       (fun p ->
         match
           ( cache doc ~program:p ~level:"SIMPLE" ~machine ~kb ~ctx,
             cache doc ~program:p ~level ~machine ~kb ~ctx )
         with
         | Some s, Some m -> (
           match what with
           | `Miss -> Some (100.0 *. (m.cr_miss -. s.cr_miss))
           | `Cost -> Some (change m.cr_fetch s.cr_fetch))
         | _ -> None)
       (complete_programs doc machine))

let cache_sizes doc =
  match doc.rows with
  | [] -> []
  | r :: _ ->
    List.sort_uniq compare (List.map (fun c -> c.cr_size_kb) r.caches)

(* --- markdown rendering --- *)

let buf_table b header rows =
  let line cells = Buffer.add_string b ("| " ^ String.concat " | " cells ^ " |\n") in
  line header;
  line (List.map (fun _ -> "---") header);
  List.iter line rows;
  Buffer.add_char b '\n'

let signed v = Printf.sprintf "%+.2f%%" v

let to_string section doc =
  let b = Buffer.create 4096 in
  section b doc;
  Buffer.contents b

(* Table 4 shape: percent of instructions that are unconditional jumps. *)
let ujumps_section b doc =
  Buffer.add_string b "## Unconditional jumps (Table 4 shape)\n\n";
  Buffer.add_string b
    "Percent of instructions that are unconditional jumps: the mean over \
     programs and its population standard deviation.\n\n";
  let cell machine stat f =
    String.concat " / "
      (List.map
         (fun level ->
           Printf.sprintf "%.2f" (stat (per_program doc ~machine ~level f)))
         levels)
  in
  buf_table b
    [
      "machine"; "statistic"; "static % (SIMPLE/LOOPS/JUMPS)";
      "dynamic % (SIMPLE/LOOPS/JUMPS)";
    ]
    (List.concat_map
       (fun machine ->
         List.map
           (fun (name, stat) ->
             [
               machine;
               name;
               cell machine stat (fun r -> pct r.static_ujumps r.static_instrs);
               cell machine stat (fun r -> pct r.dyn_ujumps r.dyn_instrs);
             ])
           [ ("mean", mean); ("std", stddev) ])
       (machines doc))

(* Table 5 shape: per-program percentage changes vs SIMPLE and their mean. *)
let static_dynamic_section b doc =
  Buffer.add_string b "## Static and dynamic instructions (Table 5 shape)\n\n";
  Buffer.add_string b
    "Per-program percentage change vs SIMPLE; the mean row averages the \
     per-program changes (the paper's method).\n\n";
  List.iter
    (fun machine ->
      Buffer.add_string b (Printf.sprintf "### %s\n\n" machine);
      let rows =
        List.filter_map
          (fun p ->
            Option.map
              (fun (s, l, j) ->
                [
                  p;
                  string_of_int s.static_instrs;
                  signed (change l.static_instrs s.static_instrs);
                  signed (change j.static_instrs s.static_instrs);
                  string_of_int s.dyn_instrs;
                  signed (change l.dyn_instrs s.dyn_instrs);
                  signed (change j.dyn_instrs s.dyn_instrs);
                ])
              (triple doc ~program:p ~machine))
          (complete_programs doc machine)
      in
      let sl, sj, dl, dj = table5_means doc machine in
      let mean_row =
        [ "**mean**"; ""; signed sl; signed sj; ""; signed dl; signed dj ]
      in
      buf_table b
        [
          "program"; "static SIMPLE"; "LOOPS"; "JUMPS"; "dynamic SIMPLE";
          "LOOPS"; "JUMPS";
        ]
        (rows @ [ mean_row ]))
    (machines doc)

(* Static code size in bytes.  On RISC this is 4x the static instruction
   count; on CISC it reflects the variable-length encodings, including
   the branch-displacement plans, so the column moves when displacement
   selection shortens branches. *)
let code_size_section b doc =
  let have_bytes = List.for_all (fun r -> r.code_bytes > 0) doc.rows in
  if have_bytes then begin
    Buffer.add_string b "## Static code size (bytes)\n\n";
    Buffer.add_string b
      "Per-program percentage change vs SIMPLE.  CISC sizes use the \
       variable-length encoding model with branch-displacement selection; \
       RISC instructions are fixed at four bytes.\n\n";
    List.iter
      (fun machine ->
        Buffer.add_string b (Printf.sprintf "### %s\n\n" machine);
        let rows =
          List.filter_map
            (fun p ->
              Option.map
                (fun (s, l, j) ->
                  [
                    p;
                    string_of_int s.code_bytes;
                    signed (change l.code_bytes s.code_bytes);
                    signed (change j.code_bytes s.code_bytes);
                  ])
                (triple doc ~program:p ~machine))
            (complete_programs doc machine)
        in
        let bytes r = r.code_bytes in
        let mean_row =
          [
            "**mean**";
            "";
            signed (mean_change doc ~machine ~level:"LOOPS" bytes);
            signed (mean_change doc ~machine ~level:"JUMPS" bytes);
          ]
        in
        buf_table b
          [ "program"; "bytes SIMPLE"; "LOOPS"; "JUMPS" ]
          (rows @ [ mean_row ]))
      (machines doc)
  end

(* Table 6 shape: miss-ratio delta in percentage points and fetch-cost
   delta in percent, vs SIMPLE, averaged over programs. *)
let cache_section b doc =
  Buffer.add_string b "## Instruction cache (Table 6 shape)\n\n";
  Buffer.add_string b
    "Deltas vs SIMPLE averaged over programs, per direct-mapped cache size, \
     with context switching simulated off and on.\n\n";
  let sizes = cache_sizes doc in
  let header =
    "machine" :: "ctx switches"
    :: List.map (fun kb -> Printf.sprintf "%dKb LOOPS / JUMPS" kb) sizes
  in
  List.iter
    (fun what ->
      Buffer.add_string b
        (match what with
        | `Miss -> "Miss ratio delta (percentage points):\n\n"
        | `Cost -> "Fetch cost delta (percent):\n\n");
      buf_table b header
        (List.concat_map
           (fun machine ->
             List.map
               (fun ctx ->
                 let delta kb level =
                   cache_delta doc ~machine ~kb ~ctx ~level what
                 in
                 machine
                 :: (if ctx then "on" else "off")
                 :: List.map
                      (fun kb ->
                        Printf.sprintf "%+.2f / %+.2f" (delta kb "LOOPS")
                          (delta kb "JUMPS"))
                      sizes)
               [ false; true ])
           (machines doc)))
    [ `Miss; `Cost ]

(* §5.2: dynamic instructions between branches, and the RISC's executed
   no-ops that JUMPS eliminates along with the jumps' delay slots. *)
let branch_section b doc =
  Buffer.add_string b "## Branch statistics (§5.2)\n\n";
  Buffer.add_string b
    "Dynamic instructions between branches, averaged over programs:\n\n";
  buf_table b ("machine" :: levels)
    (List.map
       (fun machine ->
         machine
         :: List.map
              (fun level ->
                Printf.sprintf "%.2f"
                  (mean
                     (per_program doc ~machine ~level instrs_between_branches)))
              levels)
       (machines doc));
  if List.mem "risc" (machines doc) then begin
    let nops level =
      List.fold_left ( + ) 0
        (per_program doc ~machine:"risc" ~level (fun r -> r.dyn_nops))
    in
    let s = nops "SIMPLE" and j = nops "JUMPS" in
    Buffer.add_string b
      (Printf.sprintf
         "Executed no-ops on risc: SIMPLE %d, JUMPS %d (%.1f%% eliminated).\n\n"
         s j
         (100.0 *. float_of_int (s - j) /. float_of_int (max 1 s)))
  end

let verdict_section b doc =
  let bad = List.filter (fun r -> r.timed_out || not r.output_ok) doc.rows in
  Buffer.add_string b
    (Printf.sprintf "%d measurements (%d programs x %d machines); %s\n\n"
       (List.length doc.rows)
       (List.length (programs doc))
       (List.length (machines doc))
       (if bad = [] then "all outputs verified."
        else Printf.sprintf "%d FAILED verification:" (List.length bad)));
  if bad <> [] then begin
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "- %s at %s on %s: %s\n" r.program r.level r.machine
             (if r.timed_out then "TIMEOUT" else "MISMATCH")))
      bad;
    Buffer.add_char b '\n'
  end;
  if doc.counters <> [] then begin
    Buffer.add_string b "Sweep counters:\n\n";
    buf_table b [ "counter"; "value" ]
      (List.map (fun (k, v) -> [ k; string_of_int v ]) doc.counters)
  end

let table4 = to_string ujumps_section
let table5 = to_string static_dynamic_section
let table6 = to_string cache_section
let section_5_2 = to_string branch_section

let render ?(title = "Benchmark report") doc =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "# %s\n\n" title);
  List.iter
    (fun section -> section b doc)
    [
      verdict_section; ujumps_section; static_dynamic_section;
      code_size_section; cache_section; branch_section;
    ];
  Buffer.contents b

(* --- comparison of two sweeps --- *)

let compare_docs ?(name_a = "A") ?(name_b = "B") a b =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# Sweep comparison: %s vs %s\n\n" name_a name_b);
  let key r = (r.program, r.level, r.machine) in
  let only_in name d other =
    let missing =
      List.filter (fun r -> not (List.exists (fun o -> key o = key r) other.rows)) d.rows
    in
    if missing <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "Only in %s (%d):\n\n" name (List.length missing));
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "- %s at %s on %s\n" r.program r.level r.machine))
        missing;
      Buffer.add_char buf '\n'
    end
  in
  only_in name_a a b;
  only_in name_b b a;
  let changed =
    List.filter_map
      (fun ra ->
        match List.find_opt (fun rb -> key rb = key ra) b.rows with
        | Some rb
          when rb.static_instrs <> ra.static_instrs
               || rb.dyn_instrs <> ra.dyn_instrs ->
          Some (ra, rb)
        | _ -> None)
      a.rows
  in
  if changed = [] then
    Buffer.add_string buf
      "No measurement changed static or dynamic instruction counts.\n\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%d measurements changed:\n\n" (List.length changed));
    buf_table buf
      [
        "program"; "level"; "machine"; "static"; "delta"; "dynamic"; "delta";
      ]
      (List.map
         (fun (ra, rb) ->
           [
             ra.program;
             ra.level;
             ra.machine;
             Printf.sprintf "%d -> %d" ra.static_instrs rb.static_instrs;
             signed (change rb.static_instrs ra.static_instrs);
             Printf.sprintf "%d -> %d" ra.dyn_instrs rb.dyn_instrs;
             signed (change rb.dyn_instrs ra.dyn_instrs);
           ])
         changed)
  end;
  (* Headline aggregates side by side: the Table-5 means. *)
  let shared =
    List.filter (fun m -> List.mem m (machines b)) (machines a)
  in
  if shared <> [] then begin
    Buffer.add_string buf "Table-5 means (static L/J, dynamic L/J):\n\n";
    buf_table buf
      [ "machine"; name_a; name_b; "delta" ]
      (List.map
         (fun m ->
           let fmt (sl, sj, dl, dj) =
             Printf.sprintf "%s / %s, %s / %s" (signed sl) (signed sj)
               (signed dl) (signed dj)
           in
           let ((sla, sja, dla, dja) as ma) = table5_means a m in
           let ((slb, sjb, dlb, djb) as mb) = table5_means b m in
           (* Identical sweeps render an explicit all-zero delta, so "no
              movement" is a visible assertion rather than an absence. *)
           [
             m;
             fmt ma;
             fmt mb;
             fmt (slb -. sla, sjb -. sja, dlb -. dla, djb -. dja);
           ])
         shared)
  end;
  Buffer.contents buf

(* --- gnuplot-ready data files --- *)

let dat_files doc =
  let header cols = "# " ^ String.concat "\t" cols ^ "\n" in
  let growth machine =
    let rows =
      List.filter_map
        (fun p ->
          Option.map
            (fun (s, l, j) ->
              Printf.sprintf "%s\t%.3f\t%.3f\t%.3f\t%.3f\n" p
                (change l.static_instrs s.static_instrs)
                (change j.static_instrs s.static_instrs)
                (change l.dyn_instrs s.dyn_instrs)
                (change j.dyn_instrs s.dyn_instrs))
            (triple doc ~program:p ~machine))
        (complete_programs doc machine)
    in
    ( Printf.sprintf "instrs_%s.dat" machine,
      header
        [
          "program"; "static_loops_pct"; "static_jumps_pct"; "dyn_loops_pct";
          "dyn_jumps_pct";
        ]
      ^ String.concat "" rows )
  in
  let cache_dat machine =
    let rows =
      List.map
        (fun kb ->
          let d level = cache_delta doc ~machine ~kb ~ctx:false ~level in
          Printf.sprintf "%d\t%.4f\t%.4f\t%.4f\t%.4f\n" kb
            (d "LOOPS" `Miss) (d "JUMPS" `Miss) (d "LOOPS" `Cost)
            (d "JUMPS" `Cost))
        (cache_sizes doc)
    in
    ( Printf.sprintf "cache_%s.dat" machine,
      header
        [ "kb"; "miss_loops_pp"; "miss_jumps_pp"; "cost_loops_pct"; "cost_jumps_pct" ]
      ^ String.concat "" rows )
  in
  List.concat_map (fun m -> [ growth m; cache_dat m ]) (machines doc)

(* --- telemetry JSONL summary --- *)

let summarize_events contents =
  let lines =
    String.split_on_char '\n' contents
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let bad = ref 0 in
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok j -> (
        match Option.bind (Json.member "ev" j) Json.get_string with
        | Some kind ->
          Hashtbl.replace counts kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind))
        | None -> incr bad)
      | Error _ -> incr bad)
    lines;
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "## Telemetry events (%d lines)\n\n" (List.length lines));
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (k1, v1) (k2, v2) ->
           match compare v2 v1 with 0 -> compare k1 k2 | c -> c)
  in
  buf_table b [ "event"; "count" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) rows);
  if !bad > 0 then
    Buffer.add_string b
      (Printf.sprintf "%d line(s) were not valid event objects.\n" !bad);
  Buffer.contents b
