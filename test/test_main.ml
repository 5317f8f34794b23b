let () =
  Alcotest.run "xsb-repro"
    [
      ("term", Suite_term.suite);
      ("parse", Suite_parse.suite);
      ("pretty", Suite_pretty.suite);
      ("index", Suite_index.suite);
      ("db", Suite_db.suite);
      ("hilog", Suite_hilog.suite);
      ("slg", Suite_slg.suite);
      ("bottomup", Suite_bottomup.suite);
      ("wfs", Suite_wfs.suite);
      ("wam", Suite_wam.suite);
      ("rel", Suite_rel.suite);
      ("integration", Suite_integration.suite);
      ("differential", Suite_differential.suite);
      ("scheduling", Suite_scheduling.suite);
      ("incremental", Suite_incremental.suite);
      ("subsumption", Suite_subsumption.suite);
      ("obs", Suite_obs.suite);
      ("metrics", Suite_metrics.suite);
      ("server", Suite_server.suite);
      ("journal", Suite_journal.suite);
      ("repl", Suite_repl.suite);
    ]
