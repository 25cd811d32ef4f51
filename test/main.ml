let () =
  Alcotest.run "repro"
    (Test_rel.suite @ Test_model.suite @ Test_core.suite @ Test_props.suite
   @ Test_criteria.suite @ Test_workload.suite @ Test_storage.suite
   @ Test_runtime.suite @ Test_histlang.suite @ Test_obs.suite
   @ Test_kernel.suite @ Test_increl.suite @ Test_monitor.suite
   @ Test_engine.suite
   @ Test_truncate.suite @ Test_server.suite
   @ Test_forensics.suite @ Test_adt.suite @ Test_session.suite)
