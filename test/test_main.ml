let () =
  Alcotest.run "volcano_opt"
    [
      ("value", Suite_value.suite);
      ("schema", Suite_schema.suite);
      ("expr", Suite_expr.suite);
      ("sort_order", Suite_sort_order.suite);
      ("stats", Suite_stats.suite);
      ("volcano", Suite_volcano.suite);
      ("memo", Suite_memo.suite);
      ("search", Suite_search.suite);
      ("engine", Suite_engine.suite);
      ("relmodel", Suite_relmodel.suite);
      ("executor", Suite_executor.suite);
      ("access_paths", Suite_access_paths.suite);
      ("parallel", Suite_parallel.suite);
      ("pruning", Suite_pruning.suite);
      ("dynplan", Suite_dynplan.suite);
      ("session", Suite_session.suite);
      ("plansrv", Suite_plansrv.suite);
      ("exodus", Suite_exodus.suite);
      ("sql", Suite_sql.suite);
      ("workload", Suite_workload.suite);
      ("scaleup", Suite_scaleup.suite);
      ("mqo", Suite_mqo.suite);
      ("oomodel", Suite_oomodel.suite);
      ("obs", Suite_obs.suite);
      ("feedback", Suite_feedback.suite);
      ("e2e", Suite_e2e.suite);
    ]
