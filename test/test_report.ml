(* The offline report library: parsing the bench sweep's JSON back,
   Table 4/5/6 and §5.2 arithmetic, the compare and gnuplot-data
   renderers, and the JSONL event summary. *)

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A miniature BENCH_results.json: two programs measured at all three
   levels on one machine, with round numbers so the expected values are
   obvious by hand.

   static / dynamic instructions   wc: SIMPLE 100/1000, LOOPS 110/900,
                                       JUMPS 120/800
                                   od: SIMPLE 200/2000, LOOPS 200/1900,
                                       JUMPS 220/1800
   unconditional jumps (static; dynamic is 10x)
                                   wc: 10, 8, 0     od: 30, 10, 0
   executed no-ops                 wc: 40, 35, 30   od: 60, 55, 45
   1Kb miss ratio, ctx off         wc: .05 .04 .03  od: .10 .10 .08
   1Kb miss ratio, ctx on          wc: .06 .05 .02  od: .10 .08 .09

   Branch points are wc 150 and od 395 at every level, so the
   instructions between branches at SIMPLE are 1000/150 = 6.6667 and
   2000/395 = 5.0633, whose mean 5.86498 prints as 5.86.  The JSON
   field rounds each to three decimals (6.667, 5.063), and the mean of
   those, 5.865, would print as 5.87. *)
let cache size ctx miss =
  Printf.sprintf
    {|{"config":"%dKb/direct/ctx-%s","size_kb":%d,"assoc":1,"context_switches":%b,"miss_ratio":%f,"fetch_cost":1234}|}
    size
    (if ctx then "on" else "off")
    size ctx miss

let result ?(program = "wc") ~level ~static ~dyn ~ujumps ~transfers ~nops
    ~miss ~miss_on () =
  Printf.sprintf
    {|{"program":"%s","level":"%s","machine":"risc",
       "static_instrs":%d,"static_ujumps":%d,"static_nops":1,
       "dyn_instrs":%d,"dyn_ujumps":%d,"dyn_nops":%d,"dyn_transfers":%d,
       "instrs_between_branches":%.3f,"output_ok":true,"timed_out":false,
       "caches":[%s,%s]}|}
    program level static ujumps dyn (ujumps * 10) nops transfers
    (float_of_int dyn /. float_of_int transfers)
    (cache 1 false miss) (cache 1 true miss_on)

let wc ~level ~static ~dyn ~ujumps ~nops ~miss ~miss_on =
  result ~level ~static ~dyn ~ujumps ~transfers:150 ~nops ~miss ~miss_on ()

let od ~level ~static ~dyn ~ujumps ~nops ~miss ~miss_on =
  result ~program:"od" ~level ~static ~dyn ~ujumps ~transfers:395 ~nops ~miss
    ~miss_on ()

let doc_of rows =
  Printf.sprintf {|{"results":[%s],"counters":{"measure.runs":%d}}|}
    (String.concat "," rows) (List.length rows)

let od_rows =
  [
    od ~level:"SIMPLE" ~static:200 ~dyn:2000 ~ujumps:30 ~nops:60 ~miss:0.10
      ~miss_on:0.10;
    od ~level:"LOOPS" ~static:200 ~dyn:1900 ~ujumps:10 ~nops:55 ~miss:0.10
      ~miss_on:0.08;
    od ~level:"JUMPS" ~static:220 ~dyn:1800 ~ujumps:0 ~nops:45 ~miss:0.08
      ~miss_on:0.09;
  ]

let fixture =
  doc_of
    ([
       wc ~level:"SIMPLE" ~static:100 ~dyn:1000 ~ujumps:10 ~nops:40 ~miss:0.05
         ~miss_on:0.06;
       wc ~level:"LOOPS" ~static:110 ~dyn:900 ~ujumps:8 ~nops:35 ~miss:0.04
         ~miss_on:0.05;
       wc ~level:"JUMPS" ~static:120 ~dyn:800 ~ujumps:0 ~nops:30 ~miss:0.03
         ~miss_on:0.02;
     ]
    @ od_rows)

let parse s =
  match Report.parse_results s with
  | Ok doc -> doc
  | Error e -> Alcotest.fail ("fixture rejected: " ^ e)

let test_parse () =
  let doc = parse fixture in
  Alcotest.(check int) "six rows" 6 (List.length doc.Report.rows);
  Alcotest.(check (list string)) "machines" [ "risc" ] (Report.machines doc);
  Alcotest.(check (list string))
    "programs" [ "wc"; "od" ] (Report.programs doc);
  Alcotest.(check (list string))
    "both complete" [ "wc"; "od" ]
    (Report.complete_programs doc "risc");
  Alcotest.(check (list (pair string int)))
    "counters"
    [ ("measure.runs", 6) ]
    doc.Report.counters;
  let r =
    Option.get (Report.find doc ~program:"wc" ~level:"JUMPS" ~machine:"risc")
  in
  Alcotest.(check int) "static" 120 r.Report.static_instrs;
  Alcotest.(check int) "dyn" 800 r.Report.dyn_instrs;
  Alcotest.(check int) "no ujumps left" 0 r.Report.dyn_ujumps;
  (match r.Report.caches with
  | [ c; c_on ] ->
    Alcotest.(check int) "cache size" 1 c.Report.cr_size_kb;
    Alcotest.(check bool) "ctx off" false c.Report.cr_ctx;
    Alcotest.(check bool) "ctx on" true c_on.Report.cr_ctx
  | _ -> Alcotest.fail "expected two cache rows");
  (* Junk documents give an error, not an exception. *)
  List.iter
    (fun bad ->
      match Report.parse_results bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [ "nonsense"; "{}"; {|{"results":[{"program":"p"}]}|} ]

let test_render_tables () =
  let md = Report.render ~title:"unit fixture" (parse fixture) in
  Alcotest.(check bool) "title" true (contains md "unit fixture");
  Alcotest.(check bool) "table 5 section" true (contains md "Table 5 shape");
  Alcotest.(check bool) "table 4 section" true (contains md "Table 4 shape");
  Alcotest.(check bool) "table 6 section" true (contains md "Table 6 shape");
  Alcotest.(check bool) "5.2 section" true (contains md "(§5.2)");
  (* wc's LOOPS static: (110-100)/100 = +10%; JUMPS dynamic:
     (800-1000)/1000 = -20%. *)
  Alcotest.(check bool) "loops static +10%" true (contains md "+10.0");
  Alcotest.(check bool) "jumps dynamic -20%" true (contains md "-20.0");
  (* Table 6, 1Kb, ctx off, JUMPS: wc .05 -> .03 and od .10 -> .08 are
     both -2 percentage points. *)
  Alcotest.(check bool) "miss delta in pp" true (contains md "-2.0");
  Alcotest.(check bool)
    "verification verdict" true
    (contains md "6 measurement")

let close = Alcotest.float 1e-9

(* Table 4's std row: static % unconditional jumps at SIMPLE is wc 10%
   and od 15% (mean 12.5, population std 2.5); at LOOPS wc 8/110 =
   7.2727% and od 5% (mean 6.1364, std 1.1364); JUMPS has none. *)
let test_table4_std () =
  let md = Report.table4 (parse fixture) in
  Alcotest.(check bool) "mean row" true
    (contains md "| risc | mean | 12.50 / 6.14 / 0.00 |");
  Alcotest.(check bool) "std row" true
    (contains md "| risc | std | 2.50 / 1.14 / 0.00 |");
  Alcotest.(check close) "stddev" 2.5 (Report.stddev [ 10.0; 15.0 ]);
  Alcotest.(check close) "one value has no spread" 0.0 (Report.stddev [ 7.0 ])

(* Table 6 with context switching on, 1Kb: LOOPS wc .06 -> .05 (-1pp)
   and od .10 -> .08 (-2pp), mean -1.5; JUMPS wc .06 -> .02 (-4pp) and
   od .10 -> .09 (-1pp), mean -2.5.  Ctx off, for contrast: LOOPS -1 and
   0 (mean -0.5), JUMPS -2 and -2. *)
let test_table6_ctx_on () =
  let doc = parse fixture in
  Alcotest.(check close) "ctx-on JUMPS miss delta" (-2.5)
    (Report.cache_delta doc ~machine:"risc" ~kb:1 ~ctx:true ~level:"JUMPS"
       `Miss);
  let md = Report.table6 doc in
  Alcotest.(check bool) "ctx-off row" true
    (contains md "| risc | off | -0.50 / -2.00 |");
  Alcotest.(check bool) "ctx-on row" true
    (contains md "| risc | on | -1.50 / -2.50 |")

(* §5.2 from the counts, not from the JSON's rounded field (see the
   fixture), and the no-op share: SIMPLE 40 + 60 = 100, JUMPS 30 + 45 =
   75, so 25% eliminated. *)
let test_section_5_2 () =
  let doc = parse fixture in
  let md = Report.section_5_2 doc in
  Alcotest.(check bool) "mean of dyn/transfers" true
    (contains md "| risc | 5.86 |");
  Alcotest.(check bool) "not the mean of the rounded field" false
    (contains md "5.87");
  Alcotest.(check bool) "no-op share" true
    (contains md "SIMPLE 100, JUMPS 75 (25.0% eliminated)")

(* The cells of the first "| **mean** |" row of [md] that are not
   empty. *)
let mean_cells md =
  String.split_on_char '\n' md
  |> List.find (fun l -> String.starts_with ~prefix:"| **mean** |" l)
  |> String.split_on_char '|'
  |> List.map String.trim
  |> List.filter (fun c -> c <> "" && c <> "**mean**")

(* Table 5's means, wc and od: static LOOPS +10% and 0% (+5%), JUMPS
   +20% and +10% (+15%); dynamic LOOPS -10% and -5% (-7.5%), JUMPS -20%
   and -10% (-15%).  compare_docs shows the same four numbers. *)
let test_table5_means_agree () =
  let doc = parse fixture in
  let cells = mean_cells (Report.render doc) in
  Alcotest.(check (list string))
    "render's mean row"
    [ "+5.00%"; "+15.00%"; "-7.50%"; "-15.00%" ]
    cells;
  let cmp = Report.compare_docs ~name_a:"A" ~name_b:"B" doc doc in
  Alcotest.(check bool) "compare shows render's means" true
    (contains cmp
       (match cells with
       | [ sl; sj; dl; dj ] ->
         Printf.sprintf "| risc | %s / %s, %s / %s |" sl sj dl dj
       | _ -> assert false))

let test_compare () =
  let a = parse fixture in
  let same = Report.compare_docs ~name_a:"A" ~name_b:"B" a a in
  Alcotest.(check bool) "self-compare is quiet" true
    (contains same "No measurement changed");
  let b =
    parse
      (doc_of
         ([
            wc ~level:"SIMPLE" ~static:100 ~dyn:1000 ~ujumps:10 ~nops:40
              ~miss:0.05 ~miss_on:0.06;
            wc ~level:"LOOPS" ~static:110 ~dyn:900 ~ujumps:8 ~nops:35
              ~miss:0.04 ~miss_on:0.05;
            wc ~level:"JUMPS" ~static:125 ~dyn:790 ~ujumps:0 ~nops:30
              ~miss:0.03 ~miss_on:0.02;
          ]
         @ od_rows))
  in
  let diff = Report.compare_docs ~name_a:"A" ~name_b:"B" a b in
  Alcotest.(check bool) "changed row reported" true
    (contains diff "wc" && contains diff "JUMPS");
  Alcotest.(check bool) "old and new static shown" true
    (contains diff "120" && contains diff "125")

let test_dat_files () =
  let files = Report.dat_files (parse fixture) in
  let names = List.map fst files in
  Alcotest.(check bool) "instrs file" true (List.mem "instrs_risc.dat" names);
  Alcotest.(check bool) "cache file" true (List.mem "cache_risc.dat" names);
  List.iter
    (fun (name, contents) ->
      Alcotest.(check bool) (name ^ " has header") true
        (String.length contents > 0 && contents.[0] = '#');
      (* Every data line has the same field count as the header. *)
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' contents)
      in
      let width l = List.length (String.split_on_char '\t' l) in
      let w = width (List.hd lines) in
      List.iter
        (fun l -> Alcotest.(check int) (name ^ " column count") w (width l))
        lines)
    files

let test_event_summary () =
  let jsonl =
    String.concat "\n"
      [
        {|{"seq":0,"t_ms":0.1,"ev":"pass_end","func":"main"}|};
        {|{"seq":1,"t_ms":0.2,"ev":"pass_end","func":"wc"}|};
        {|{"seq":2,"t_ms":0.3,"ev":"warning","message":"m"}|};
        "not json at all";
      ]
  in
  let md = Report.summarize_events jsonl in
  Alcotest.(check bool) "counts pass_end" true (contains md "pass_end");
  Alcotest.(check bool) "counts warning" true (contains md "warning");
  Alcotest.(check bool) "two pass_ends" true (contains md "2")

let tests =
  ( "report",
    [
      Alcotest.test_case "parse results" `Quick test_parse;
      Alcotest.test_case "render tables" `Quick test_render_tables;
      Alcotest.test_case "table 4 std" `Quick test_table4_std;
      Alcotest.test_case "table 6 ctx on" `Quick test_table6_ctx_on;
      Alcotest.test_case "section 5.2" `Quick test_section_5_2;
      Alcotest.test_case "table 5 means agree" `Quick test_table5_means_agree;
      Alcotest.test_case "compare docs" `Quick test_compare;
      Alcotest.test_case "dat files" `Quick test_dat_files;
      Alcotest.test_case "event summary" `Quick test_event_summary;
    ] )
