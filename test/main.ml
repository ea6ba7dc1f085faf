(* Aggregated test suites for the whole reproduction. *)

let () =
  Alcotest.run "asura_sql"
    [
      "observability", Test_obs.suite;
      "values-rows-schemas", Test_value.suite;
      "expressions", Test_expr.suite;
      "tables-and-operators", Test_table.suite;
      "constraint-solver", Test_solver.suite;
      "sql-front-end", Test_sql.suite;
      "plans-and-csv", Test_plan.suite;
      "indexes-and-physical-plans", Test_index.suite;
      "graphs", Test_graph.suite;
      "relalg-properties", Test_relalg_props.suite;
      "planner-differential", Test_planner.suite;
      "lineage-and-why", Test_why.suite;
      "seq-vs-par-differential", Test_par_diff.suite;
      "state-packing", Test_pack.suite;
      "protocol-model", Test_protocol.suite;
      "ctrl-spec-properties", Test_ctrl_spec_props.suite;
      "checker", Test_checker.suite;
      "reports-and-fixpoint", Test_report.suite;
      "hardware-mapping", Test_mapping.suite;
      "model-checker", Test_mcheck.suite;
      "simulator", Test_sim.suite;
      "sequence-charts", Test_msc.suite;
      "transaction-walkthroughs", Test_walkthrough.suite;
      "coverage-and-manifests", Test_coverage.suite;
      "system-tables", Test_systables.suite;
      "plan-observatory", Test_plans.suite;
      "flight-recorder", Test_events.suite;
    ]
