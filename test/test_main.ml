let () =
  Alcotest.run "jumprep"
    [
      Test_arith.tests;
      Test_rtl.tests;
      Test_machine.tests;
      Test_frontend.tests;
      Test_flow.tests;
      Test_check.tests;
      Test_analysis.tests;
      Test_replication.tests;
      Test_opt.tests;
      Test_tv.tests;
      Test_regalloc.tests;
      Test_expr.tests;
      Test_encode.tests;
      Test_sim.tests;
      Test_icache.tests;
      Test_programs.tests;
      Test_paper_shapes.tests;
      Test_harness.tests;
      Test_telemetry.tests;
      Test_campaign.tests;
      Test_report.tests;
      Test_random_c.tests;
    ]
