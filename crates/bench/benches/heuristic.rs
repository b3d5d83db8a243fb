//! Environmental-resource identification cost (paper §4.1, Table 1).
//!
//! Runs the four-part heuristic over the Table 1 application models and
//! over synthetic traces, for its scaling in trace count and length: one
//! pass per trace feeds the longest common prefix and the read-only rule
//! alike, so the unit timed is [`identify`].

use mirage_bench::harness::Harness;
use mirage_heuristic::{identify, HeuristicConfig, RuleSet};
use mirage_scenarios::apps;
use mirage_trace::{OpenMode, RunId, SyscallEvent, Trace};

fn synthetic_traces(runs: usize, files: usize) -> Vec<Trace> {
    (0..runs)
        .map(|r| {
            let mut t = Trace::new("m", "app", RunId(r as u64));
            for i in 0..files {
                t.push(SyscallEvent::Open {
                    path: format!("/shared/f{i:05}"),
                    mode: OpenMode::ReadOnly,
                });
            }
            // Divergent tail so the LCP has to stop.
            t.push(SyscallEvent::Open {
                path: format!("/data/run{r}"),
                mode: OpenMode::ReadOnly,
            });
            t
        })
        .collect()
}

fn main() {
    let mut h = Harness::new("heuristic");

    for model in apps::all_models() {
        h.bench(&format!("heuristic/table1/{}", model.name), || {
            model.table1_row().false_positives
        });
    }

    let config = HeuristicConfig::paper_default();
    let rules = RuleSet::new();
    for &(runs, files) in &[(4usize, 100usize), (4, 1_000), (4, 10_000), (8, 2_000)] {
        let traces = synthetic_traces(runs, files);
        h.bench(
            &format!("heuristic/identify/runs-{runs}/files-{files}"),
            || {
                identify(&traces, [], &|_| None, &config, &rules)
                    .env_resources
                    .len()
            },
        );
    }
}
