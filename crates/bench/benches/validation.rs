//! Sandbox validation throughput (paper §3.3).
//!
//! Measures booting the copy-on-write sandbox, applying an upgrade, and
//! replaying recorded runs — the per-machine cost of user-machine
//! testing that staged deployment tries to spend on as few machines as
//! possible.

use mirage_bench::harness::Harness;
use mirage_scenarios::{firefox, mysql};
use mirage_testing::{Sandbox, Validator};

fn main() {
    let mut h = Harness::new("validation");

    let scenario = mysql::MySqlScenario::with_full_parsers();
    let machine = &scenario.agents[0].machine;
    h.bench("validation/sandbox-boot", || {
        Sandbox::boot(machine).machine.fs.len()
    });

    // A healthy machine and a problem machine (the PHP one).
    for id in ["ubt-ms4", "ubt-ms4/php4"] {
        let agent = scenario
            .agents
            .iter()
            .find(|a| a.machine.id == id)
            .expect("agent");
        h.bench(&format!("validation/mysql-upgrade/{id}"), || {
            Validator::new()
                .validate(
                    &agent.machine,
                    &scenario.vendor.repo,
                    &scenario.upgrade,
                    &agent.runs,
                )
                .passed()
        });
    }

    let scenario = firefox::FirefoxScenario::with_full_parsers();
    let agent = scenario
        .agents
        .iter()
        .find(|a| a.machine.id == "firefox15-from10")
        .expect("agent");
    h.bench("validation/firefox-2.0-legacy", || {
        Validator::new()
            .validate(
                &agent.machine,
                &scenario.vendor.repo,
                &scenario.upgrade,
                &agent.runs,
            )
            .passed()
    });
}
