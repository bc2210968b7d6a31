(* Instruction-cache simulation: [Icache.Bank], checked against hand
   counts and against the per-cache oracle in [Icache_oracle]. *)

let config ?(kb = 1) ?(cs = false) ?(assoc = 1) () =
  { Icache.size_bytes = kb * 1024; line_bytes = 16; context_switches = cs; assoc }

(* A single cache is a bank of one configuration. *)
let cache c = Icache.Bank.create [ c ]
let access b ~addr ~size = Icache.Bank.access b ~addr ~size
let hits b = Icache.Bank.hits b 0
let misses b = Icache.Bank.misses b 0
let accesses b = Icache.Bank.accesses b 0

let test_cold_miss_then_hits () =
  let c = cache (config ()) in
  access c ~addr:0x1000 ~size:4;
  access c ~addr:0x1004 ~size:4;
  access c ~addr:0x1008 ~size:4;
  Alcotest.(check int) "one miss" 1 (misses c);
  Alcotest.(check int) "two hits" 2 (hits c);
  Alcotest.(check int) "fetch cost" (10 + 2) (Icache.Bank.fetch_cost c 0)

let test_conflict_eviction () =
  (* 1 KiB direct-mapped: addresses 1 KiB apart collide. *)
  let c = cache (config ()) in
  access c ~addr:0x0000 ~size:4;
  access c ~addr:0x0400 ~size:4;
  access c ~addr:0x0000 ~size:4;
  Alcotest.(check int) "all misses" 3 (misses c)

let test_line_straddle () =
  (* A 6-byte CISC instruction crossing a 16-byte boundary touches two
     lines. *)
  let c = cache (config ()) in
  access c ~addr:0x100C ~size:6;
  Alcotest.(check int) "two accesses" 2 (accesses c);
  Alcotest.(check int) "two misses" 2 (misses c)

let test_nonpositive_size () =
  (* A fetch of size <= 0 counts as one byte: it touches exactly the line
     of its address, in the uniform and in the general bank alike. *)
  List.iter
    (fun configs ->
      let b = Icache.Bank.create configs in
      Icache.Bank.access b ~addr:0x100F ~size:0;
      Icache.Bank.access b ~addr:0x1010 ~size:(-3);
      Icache.Bank.access b ~addr:0x100F ~size:1;
      Array.iteri
        (fun i c ->
          let name = Icache.config_name c in
          Alcotest.(check int) (name ^ " accesses") 3 (Icache.Bank.accesses b i);
          Alcotest.(check int) (name ^ " misses") 2 (Icache.Bank.misses b i))
        (Icache.Bank.configs b))
    [ Icache.paper_configs; [ config ~assoc:2 () ] ]

let test_context_switch_flush () =
  let on = cache (config ~cs:true ()) in
  let off = cache (config ~cs:false ()) in
  (* Loop over one line for more than 10,000 time units. *)
  for _ = 1 to 10_200 do
    access on ~addr:0x2000 ~size:4;
    access off ~addr:0x2000 ~size:4
  done;
  Alcotest.(check int) "no flush without context switches" 1 (misses off);
  Alcotest.(check bool) "flushes add misses" true (misses on > 1)

let test_reset () =
  let c = cache (config ()) in
  access c ~addr:0x0 ~size:4;
  Icache.Bank.reset c;
  Alcotest.(check int) "hits cleared" 0 (hits c);
  Alcotest.(check int) "misses cleared" 0 (misses c);
  access c ~addr:0x0 ~size:4;
  Alcotest.(check int) "cold again" 1 (misses c)

let test_paper_configs () =
  Alcotest.(check int) "eight configurations" 8 (List.length Icache.paper_configs);
  List.iter
    (fun c ->
      Alcotest.(check int) "16-byte lines" 16 c.Icache.line_bytes;
      Alcotest.(check bool) "power-of-two KiB" true
        (List.mem (c.Icache.size_bytes / 1024) [ 1; 2; 4; 8 ]))
    Icache.paper_configs

let test_bigger_cache_never_worse_sequential () =
  (* For a simple loop trace, larger caches can only reduce misses. *)
  let mk kb = cache (config ~kb ()) in
  let c1 = mk 1 and c8 = mk 8 in
  for _ = 1 to 50 do
    for i = 0 to 599 do
      let addr = 0x4000 + (i * 4) in
      access c1 ~addr ~size:4;
      access c8 ~addr ~size:4
    done
  done;
  Alcotest.(check bool) "8K no worse than 1K" true (misses c8 <= misses c1);
  (* The 2400-byte loop fits in 8K: only cold misses. *)
  Alcotest.(check int) "8K only cold misses" 150 (misses c8)

let test_associativity_resolves_conflicts () =
  (* Two addresses one cache-size apart conflict in a direct-mapped cache
     but coexist in a 2-way set. *)
  let direct = cache (config ~kb:1 ()) in
  let twoway = cache (config ~kb:1 ~assoc:2 ()) in
  for _ = 1 to 100 do
    List.iter
      (fun addr ->
        access direct ~addr ~size:4;
        access twoway ~addr ~size:4)
      [ 0x0000; 0x0400 ]
  done;
  Alcotest.(check int) "direct thrashes" 200 (misses direct);
  Alcotest.(check int) "two-way keeps both" 2 (misses twoway)

let test_lru_eviction_order () =
  (* 2-way: touching A, B, then C (all one set) evicts A, the least
     recently used. *)
  let c = cache (config ~kb:1 ~assoc:2 ()) in
  let a = 0x0000 and b = 0x0400 and cc = 0x0800 in
  access c ~addr:a ~size:4;
  access c ~addr:b ~size:4;
  access c ~addr:cc ~size:4;
  (* B must still be resident; A must not. *)
  access c ~addr:b ~size:4;
  Alcotest.(check int) "b still hits" 1 (hits c);
  access c ~addr:a ~size:4;
  Alcotest.(check int) "a was evicted" 4 (misses c)

let prop_assoc_never_worse_lru =
  QCheck.Test.make ~name:"for looping traces, 2-way misses <= direct misses"
    ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 2 30) (int_range 0 40))
    (fun lines ->
      (* A repeating loop trace: LRU with more ways can only help. *)
      let direct = cache (config ~kb:1 ()) in
      let twoway = cache (config ~kb:1 ~assoc:2 ()) in
      for _ = 1 to 30 do
        List.iter
          (fun l ->
            let addr = l * 1024 in
            access direct ~addr ~size:4;
            access twoway ~addr ~size:4)
          lines
      done;
      (* Not a theorem for arbitrary traces (Belady anomalies), but it holds
         for this single-set pattern where direct always conflicts. *)
      misses twoway <= misses direct + 30)

let prop_counters_consistent =
  QCheck.Test.make ~name:"hits + misses = accesses; ratio in [0,1]" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 100_000))
    (fun addrs ->
      let c = cache (config ~kb:2 ()) in
      List.iter (fun a -> access c ~addr:a ~size:4) addrs;
      let ratio = Icache.Bank.miss_ratio c 0 in
      hits c + misses c = accesses c
      && ratio >= 0.0
      && ratio <= 1.0
      && Icache.Bank.fetch_cost c 0 = hits c + (10 * misses c))

let prop_repeat_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:100
    QCheck.(int_range 0 1_000_000) (fun addr ->
      let c = cache (config ~kb:4 ()) in
      access c ~addr ~size:4;
      let m = misses c in
      access c ~addr ~size:4;
      misses c = m)

(* --- Bank vs the per-cache oracle ---------------------------------- *)

(* Every statistic of a bank must equal feeding the same stream to one
   oracle cache per configuration.  The banks under test cover both
   access paths: the paper's eight configs form a uniform bank (the
   pending-hit path), the mixed list with LRU sets and context switches
   takes the general path, and the associativity ablation's configs run
   as banks of one, as [Harness.Tables.ablation_assoc] uses them. *)
let mixed_configs =
  Icache.paper_configs
  @ [
      config ~kb:1 ~assoc:2 ();
      config ~kb:2 ~assoc:4 ~cs:true ();
      config ~kb:1 ~assoc:2 ~cs:true ();
    ]

let assoc_configs = List.map (fun assoc -> config ~kb:1 ~assoc ()) [ 1; 2; 4 ]

let banks_under_test () =
  List.map
    (fun configs ->
      (Icache.Bank.create configs, Array.of_list (List.map Icache_oracle.create configs)))
    ([ Icache.paper_configs; mixed_configs ] @ List.map (fun c -> [ c ]) assoc_configs)

let feed banks ~addr ~size =
  List.iter
    (fun (bank, oracles) ->
      Icache.Bank.access bank ~addr ~size;
      Array.iter (fun o -> Icache_oracle.access o ~addr ~size) oracles)
    banks

(* The configs of [banks] whose statistics differ from their oracle's. *)
let disagreements banks =
  List.concat_map
    (fun (bank, oracles) ->
      List.filter_map
        (fun i ->
          let o = oracles.(i) in
          if
            Icache.Bank.hits bank i = Icache_oracle.hits o
            && Icache.Bank.misses bank i = Icache_oracle.misses o
            && Icache.Bank.accesses bank i = Icache_oracle.accesses o
            && Icache.Bank.miss_ratio bank i = Icache_oracle.miss_ratio o
            && Icache.Bank.fetch_cost bank i = Icache_oracle.fetch_cost o
          then None
          else Some (Icache.config_name (Icache.Bank.configs bank).(i)))
        (List.init (Array.length oracles) Fun.id))
    banks

let test_bank_basic () =
  let banks = banks_under_test () in
  List.iter
    (fun (addr, size) -> feed banks ~addr ~size)
    [ (0x1000, 4); (0x1004, 4); (0x0000, 4); (0x0400, 6); (0x100C, 6); (0x1000, 2) ];
  Alcotest.(check (list string)) "banks agree with the oracle" [] (disagreements banks)

let test_bank_reset () =
  let bank = Icache.Bank.create Icache.paper_configs in
  Icache.Bank.access bank ~addr:0x40 ~size:4;
  Icache.Bank.reset bank;
  for i = 0 to Array.length (Icache.Bank.configs bank) - 1 do
    Alcotest.(check int) "accesses cleared" 0 (Icache.Bank.accesses bank i)
  done;
  Icache.Bank.access bank ~addr:0x40 ~size:4;
  Alcotest.(check int) "cold again" 1 (Icache.Bank.misses bank 0)

let prop_bank_matches_individual_caches =
  (* Long streams of small strides tripping line straddles, conflicts
     and (at > 10,000 accumulated time units) context-switch flushes. *)
  QCheck.Test.make
    ~name:"Bank statistics equal one-cache-per-config simulation" ~count:30
    QCheck.(
      list_of_size
        (QCheck.Gen.int_range 50 600)
        (pair (int_range 0 20_000) (int_range 1 8)))
    (fun stream ->
      let banks = banks_under_test () in
      (* Repeat the stream so context-switch clocks actually wrap. *)
      for _ = 1 to 8 do
        List.iter (fun (addr, size) -> feed banks ~addr ~size) stream
      done;
      disagreements banks = [])

(* A loop-shaped stream: a few hot code segments, each a run of fetches
   at a small stride, some followed by a jump far away, the whole body
   repeated [reps] times.  Statistics are read at [reads] (fetch indices),
   which materializes the bank's pending hits mid-run. *)
type loop = {
  segments : (int * int * int * int * int option) list;
      (** base, stride, fetches, size, far fetch after the run *)
  reps : int;
  reads : int list;
}

let gen_loop =
  let open QCheck.Gen in
  let segment =
    let* base = int_range 0 0x3FFF in
    let* stride = int_range 1 8 in
    let* count = int_range 1 12 in
    (* Mostly RISC-sized fetches; CISC-sized ones straddle lines, and a
       few are degenerate (size <= 0). *)
    let* size = frequency [ (4, return 4); (3, int_range 2 10); (1, int_range (-1) 1) ] in
    let* far = opt ~ratio:0.25 (int_range 0 0xFFFFF) in
    return (base, stride, count, size, far)
  in
  let* segments = list_size (int_range 1 6) segment in
  let body =
    List.fold_left
      (fun n (_, _, count, _, far) -> n + count + Option.fold ~none:0 ~some:(fun _ -> 1) far)
      0 segments
  in
  (* About 40,000 fetches: at least four flushes of every context-switching
     config, usually far more. *)
  let reps = (40_000 + body - 1) / body in
  let* reads = list_size (int_range 1 12) (int_range 0 (reps * body - 1)) in
  return { segments; reps; reads = List.sort_uniq compare reads }

let print_loop l =
  Printf.sprintf "reps %d, reads [%s], segments [%s]" l.reps
    (String.concat "; " (List.map string_of_int l.reads))
    (String.concat "; "
       (List.map
          (fun (base, stride, count, size, far) ->
            Printf.sprintf "0x%x+%dx%d size %d%s" base stride count size
              (match far with Some a -> Printf.sprintf " then 0x%x" a | None -> ""))
          l.segments))

let prop_bank_matches_oracle_on_loops =
  QCheck.Test.make ~name:"Bank equals the oracle on loop-shaped streams" ~count:25
    (QCheck.make ~print:print_loop gen_loop)
    (fun l ->
      let banks = banks_under_test () in
      let reads = ref l.reads in
      let fetches = ref 0 in
      let ok = ref true in
      let fetch ~addr ~size =
        feed banks ~addr ~size;
        (match !reads with
         | r :: rest when r = !fetches ->
           reads := rest;
           if disagreements banks <> [] then ok := false
         | _ -> ());
        incr fetches
      in
      for _ = 1 to l.reps do
        List.iter
          (fun (base, stride, count, size, far) ->
            for k = 0 to count - 1 do
              fetch ~addr:(base + (k * stride)) ~size
            done;
            Option.iter (fun addr -> fetch ~addr ~size:4) far)
          l.segments
      done;
      !ok && disagreements banks = [])

let tests =
  ( "icache",
    [
      Alcotest.test_case "cold miss then hits" `Quick test_cold_miss_then_hits;
      Alcotest.test_case "conflict eviction" `Quick test_conflict_eviction;
      Alcotest.test_case "line straddle" `Quick test_line_straddle;
      Alcotest.test_case "size <= 0 counts as size 1" `Quick test_nonpositive_size;
      Alcotest.test_case "context switch flush" `Quick test_context_switch_flush;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "paper configurations" `Quick test_paper_configs;
      Alcotest.test_case "capacity behavior" `Quick test_bigger_cache_never_worse_sequential;
      Alcotest.test_case "associativity" `Quick test_associativity_resolves_conflicts;
      Alcotest.test_case "lru order" `Quick test_lru_eviction_order;
      Alcotest.test_case "bank basic agreement" `Quick test_bank_basic;
      Alcotest.test_case "bank reset" `Quick test_bank_reset;
      QCheck_alcotest.to_alcotest prop_assoc_never_worse_lru;
      QCheck_alcotest.to_alcotest prop_counters_consistent;
      QCheck_alcotest.to_alcotest prop_repeat_hits;
      QCheck_alcotest.to_alcotest prop_bank_matches_individual_caches;
      QCheck_alcotest.to_alcotest prop_bank_matches_oracle_on_loops;
    ] )
