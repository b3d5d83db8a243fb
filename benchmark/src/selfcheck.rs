//! `--selfcheck-noise N`: N full sets of untraced runs of the same
//! code, one child process per run, judged against the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use mirage_benchmark::harness::quantile;
use mirage_benchmark::names;
use mirage_telemetry::json::Value;

/// One run's end-to-end values, or why there are none.
fn one_run(workload: &str, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Value::parse(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: no metrics in the last line"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: {name} has no value"))
        })
        .collect()
}

/// Runs `sets` sets of every workload and prints, as Markdown, each
/// (workload, end-to-end metric) pair's largest relative deviation from
/// the pair's median against its bound. Fails on any breach.
pub fn run(sets: usize, seconds: f64) -> ExitCode {
    // Set by set, not workload by workload: drift of the host over the
    // minutes this takes then shows as spread instead of hiding in one
    // workload.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for workload in names::WORKLOADS {
            eprintln!("set {}/{sets}: {workload}", set + 1);
            match one_run(workload, seconds) {
                Ok(metrics) => {
                    for (name, value) in metrics {
                        values.entry((workload, name)).or_default().push(value);
                    }
                }
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    println!("# Noise self-check");
    println!();
    println!(
        "`benchmark --selfcheck-noise {sets} --seconds {seconds}`: {sets} sets of untraced runs \
         of the same code at the default seed, one process per run."
    );
    println!("{}", mirage_benchmark::harness::host_line());
    println!();
    println!(
        "| workload | metric | values | median (nearest rank) | largest deviation | bound | |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for workload in names::WORKLOADS {
        for (def, bound) in names::END_TO_END {
            let runs = &values[&(workload, def.name.to_string())];
            let mid = quantile(&mut runs.clone(), 0.5);
            let deviation = runs
                .iter()
                .map(|v| (v - mid).abs() / mid)
                .fold(0.0, f64::max);
            let verdict = if deviation <= bound { "ok" } else { "BREACH" };
            breaches += usize::from(deviation > bound);
            let listed: Vec<String> = runs.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| `{workload}` | `{}` ({}) | {} | {mid:.4} | {:.2} % | {:.0} % | {verdict} |",
                def.name,
                def.unit,
                listed.join(" "),
                deviation * 100.0,
                bound * 100.0
            );
        }
    }
    println!();
    if breaches == 0 {
        println!("All {} pairs within their bounds.", values.len());
        ExitCode::SUCCESS
    } else {
        println!("{breaches} pairs outside their bounds.");
        ExitCode::FAILURE
    }
}
