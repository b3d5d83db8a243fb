//! End-to-end clustering of the paper's own MySQL and Firefox fleets
//! and the per-machine user-side pipeline (paper §3.2.3).
//!
//! The synthetic scaling fleets (dense-N, spread-N, replicated MySQL)
//! live in `repro clustering-perf`, which commits them as
//! `BENCH_clustering.json`.

use mirage_bench::harness::Harness;
use mirage_scenarios::{firefox, mysql};

fn main() {
    let mut h = Harness::new("clustering");

    let mysql_scenario = mysql::MySqlScenario::with_full_parsers();
    let mysql_inputs = mysql_scenario.fleet_inputs();
    h.bench("clustering/mysql-table2-full-parsers", || {
        mysql_scenario.vendor.cluster(&mysql_inputs).len()
    });

    let mysql_rabin = mysql::MySqlScenario::with_mirage_parsers(3);
    let rabin_inputs = mysql_rabin.fleet_inputs();
    h.bench("clustering/mysql-table2-mirage-parsers", || {
        mysql_rabin.vendor.cluster(&rabin_inputs).len()
    });

    let ff = firefox::FirefoxScenario::with_mirage_parsers(4);
    let ff_inputs = ff.fleet_inputs();
    h.bench("clustering/firefox-table3-d4", || {
        ff.vendor.cluster(&ff_inputs).len()
    });

    // End-to-end per-machine cost: trace -> classify -> fingerprint ->
    // diff. This is the distributed user-side work.
    let scenario = mysql::MySqlScenario::with_full_parsers();
    let classification = scenario.vendor.classify_reference(
        "mysqld",
        &[
            mirage_env::RunInput::new("a"),
            mirage_env::RunInput::new("b"),
        ],
    );
    let reference = scenario.vendor.reference_fingerprint(&classification);
    let agent = &scenario.agents[7];
    h.bench("clustering/per-machine-pipeline", || {
        agent
            .clustering_input("mysqld", &scenario.vendor, &reference)
            .diff
            .len()
    });
}
