let () =
  Alcotest.run "dice"
    [ ("netsim", Test_netsim.suite);
      ("prefix", Test_prefix.suite);
      ("attrs", Test_attrs.suite);
      ("wire", Test_wire.suite);
      ("fsm", Test_fsm.suite);
      ("policy", Test_policy.suite);
      ("decision", Test_decision.suite);
      ("config", Test_config.suite);
      ("rib", Test_rib.suite);
      ("router", Test_router.suite);
      ("sparrow", Test_sparrow.suite);
      ("topology", Test_topology.suite);
      ("concolic", Test_concolic.suite);
      ("snapshot", Test_snapshot.suite);
      ("dice", Test_dice.suite);
      ("checks", Test_checks.suite);
      ("parallel", Test_parallel.suite);
      ("churn", Test_churn.suite);
      ("mangler", Test_mangler.suite);
      ("misc", Test_misc.suite);
      ("triage", Test_triage.suite);
      ("confuzz", Test_confuzz.suite);
      ("telemetry", Test_telemetry.suite);
      ("scale", Test_scale.suite);
      ("benchgate", Test_benchgate.suite);
      ("cascade", Test_cascade.suite);
      ("campaign", Test_campaign.suite);
      ("repair", Test_repair.suite);
      ("artifact", Test_artifact.suite);
      ("demo", Test_demo.suite);
      ("fuzz-cli", Test_fuzz_cli.suite) ]
