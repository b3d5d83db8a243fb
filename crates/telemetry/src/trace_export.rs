//! Chrome `trace_event` export of a campaign journal.
//!
//! Produces the JSON object format consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`: a top-level
//! `{"traceEvents": [...]}` document. Deployment waves become **async
//! slices** (`ph: "b"` / `ph: "e"` pairs on pid 1), so the staged
//! rollout reads as a banded timeline; a deterministic sample of
//! machines becomes per-machine **tracks** (pid 2, one tid per sampled
//! machine) carrying a complete (`ph: "X"`) slice from first notify to
//! first pass plus instant (`ph: "i"`) marks for failures, retries,
//! and injected faults. Machine and problem names are rendered lazily
//! through caller-supplied resolvers — the journal itself only stores
//! dense ids.
//!
//! Sim time maps 1:1 onto trace microseconds (`ts` is µs in the
//! `trace_event` format); sim timestamps are abstract units, so the
//! scale is only about readable zoom levels, not wall-clock truth.

use std::collections::BTreeMap;

use crate::journal::{JournalEntry, JournalEvent, NO_PROBLEM};
use crate::json::Value;

/// Export knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of machine tracks to emit (sampled evenly across
    /// the notified machine-id range). 0 disables machine tracks.
    pub(crate) max_machine_tracks: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            max_machine_tracks: 32,
        }
    }
}

fn meta(pid: u64, name: &str) -> Value {
    Value::obj([
        ("name", Value::str("process_name")),
        ("ph", Value::str("M")),
        ("pid", Value::from(pid)),
        ("tid", Value::from(0u64)),
        ("args", Value::obj([("name", Value::str(name))])),
    ])
}

fn thread_meta(pid: u64, tid: u64, name: &str) -> Value {
    Value::obj([
        ("name", Value::str("thread_name")),
        ("ph", Value::str("M")),
        ("pid", Value::from(pid)),
        ("tid", Value::from(tid)),
        ("args", Value::obj([("name", Value::str(name))])),
    ])
}

fn async_event(ph: &str, name: &str, id: u64, ts: u64) -> Value {
    Value::obj([
        ("name", Value::str(name)),
        ("cat", Value::str("wave")),
        ("ph", Value::str(ph)),
        ("id", Value::from(id)),
        ("ts", Value::from(ts)),
        ("pid", Value::from(1u64)),
        ("tid", Value::from(0u64)),
    ])
}

fn instant(name: &str, cat: &str, ts: u64, tid: u64) -> Value {
    Value::obj([
        ("name", Value::str(name)),
        ("cat", Value::str(cat)),
        ("ph", Value::str("i")),
        ("s", Value::str("t")),
        ("ts", Value::from(ts)),
        ("pid", Value::from(2u64)),
        ("tid", Value::from(tid)),
    ])
}

/// Renders a journal timeline as a Chrome `trace_event` document.
///
/// `run_end` closes any open wave slice and any never-converged
/// machine slice. Resolvers turn dense ids into display names.
pub fn chrome_trace(
    entries: &[JournalEntry],
    run_end: u64,
    machine_name: &dyn Fn(u32) -> String,
    problem_name: &dyn Fn(u16) -> String,
    config: &TraceConfig,
) -> Value {
    // Restore strict chronological order — insertion order is only
    // near-chronological when the driver batches journal writes.
    let mut sorted: Vec<JournalEntry> = entries.to_vec();
    sorted.sort_unstable_by_key(|e| (e.time, e.seq));
    let entries = &sorted[..];
    let mut events = Vec::new();
    events.push(meta(1, "deployment waves"));
    events.push(meta(2, "sampled machines"));

    // --- Waves as async slices -------------------------------------
    // Slice 0 ("stage 0") opens at t=0; each WaveAdvance closes the
    // open slice and opens the next one.
    let mut open = (0u64, "stage 0".to_string());
    let mut slice_id = 0u64;
    for e in entries {
        if let JournalEvent::WaveAdvance { wave, cluster } = e.event {
            let (start, name) = open;
            events.push(async_event("b", &name, slice_id, start));
            events.push(async_event("e", &name, slice_id, e.time));
            slice_id += 1;
            open = (e.time, format!("wave {} → cluster {cluster}", wave + 1));
        }
    }
    let (start, name) = open;
    events.push(async_event("b", &name, slice_id, start));
    events.push(async_event("e", &name, slice_id, run_end.max(start)));

    // --- Sampled machine tracks ------------------------------------
    if config.max_machine_tracks > 0 {
        // Deterministic sample: collect machines in first-notify order,
        // then take an even stride across that order.
        let mut notified: Vec<u32> = Vec::new();
        let mut seen: BTreeMap<u32, ()> = BTreeMap::new();
        for e in entries {
            if let JournalEvent::Notify { machine, .. } = e.event {
                if seen.insert(machine, ()).is_none() {
                    notified.push(machine);
                }
            }
        }
        let stride = notified.len().div_ceil(config.max_machine_tracks).max(1);
        let sampled: BTreeMap<u32, u64> = notified
            .iter()
            .step_by(stride)
            .enumerate()
            .map(|(track, &m)| (m, track as u64))
            .collect();
        for (&m, &tid) in &sampled {
            events.push(thread_meta(2, tid, &machine_name(m)));
        }

        let mut open_test: BTreeMap<u32, u64> = BTreeMap::new();
        for e in entries {
            match e.event {
                JournalEvent::Notify { machine, .. } if sampled.contains_key(&machine) => {
                    open_test.entry(machine).or_insert(e.time);
                }
                JournalEvent::Test {
                    machine, problem, ..
                } => {
                    let Some(&tid) = sampled.get(&machine) else {
                        continue;
                    };
                    if problem == NO_PROBLEM {
                        if let Some(start) = open_test.remove(&machine) {
                            events.push(complete("test+integrate", start, e.time, tid));
                        }
                    } else {
                        events.push(instant(&problem_name(problem), "failure", e.time, tid));
                    }
                }
                JournalEvent::Retry {
                    machine, attempt, ..
                } => {
                    if let Some(&tid) = sampled.get(&machine) {
                        events.push(instant(&format!("retry #{attempt}"), "retry", e.time, tid));
                    }
                }
                JournalEvent::Fault { fault, machine } => {
                    if let Some(&tid) = sampled.get(&machine) {
                        events.push(instant(fault.name(), "fault", e.time, tid));
                    }
                }
                _ => {}
            }
        }
        // Machines that never converged: emit the open slice to run end.
        for (machine, start) in open_test {
            let tid = sampled[&machine];
            events.push(complete(
                "test (unconverged)",
                start,
                run_end.max(start),
                tid,
            ));
        }
    }

    Value::obj([
        ("displayTimeUnit", Value::str("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
}

fn complete(name: &str, start: u64, end: u64, tid: u64) -> Value {
    Value::obj([
        ("name", Value::str(name)),
        ("cat", Value::str("machine")),
        ("ph", Value::str("X")),
        ("ts", Value::from(start)),
        ("dur", Value::from(end.saturating_sub(start))),
        ("pid", Value::from(2u64)),
        ("tid", Value::from(tid)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::FaultKind;

    fn entry(time: u64, seq: u64, event: JournalEvent) -> JournalEntry {
        JournalEntry { time, seq, event }
    }

    fn trace(entries: &[JournalEntry], run_end: u64, cfg: &TraceConfig) -> Value {
        chrome_trace(
            entries,
            run_end,
            &|m| format!("m{m}"),
            &|p| format!("p{p}"),
            cfg,
        )
    }

    fn phases(doc: &Value) -> Vec<(&str, &str)> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("ph").unwrap().as_str().unwrap(),
                    e.get("name").unwrap().as_str().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn wave_slices_are_balanced_and_cover_the_run() {
        let entries = [
            entry(
                0,
                0,
                JournalEvent::Notify {
                    machine: 0,
                    release: 0,
                },
            ),
            entry(
                100,
                1,
                JournalEvent::WaveAdvance {
                    wave: 0,
                    cluster: 2,
                },
            ),
            entry(
                250,
                2,
                JournalEvent::WaveAdvance {
                    wave: 1,
                    cluster: 5,
                },
            ),
        ];
        let doc = trace(&entries, 400, &TraceConfig::default());
        let text = doc.to_compact();
        let back = Value::parse(&text).unwrap();
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        let begins: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("b"))
            .collect();
        let ends: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("e"))
            .collect();
        assert_eq!(begins.len(), 3, "stage 0 + two advances");
        assert_eq!(begins.len(), ends.len());
        // Slices tile the timeline: [0,100], [100,250], [250,400].
        let spans: Vec<(u64, u64)> = begins
            .iter()
            .zip(&ends)
            .map(|(b, e)| {
                (
                    b.get("ts").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(spans, [(0, 100), (100, 250), (250, 400)]);
        assert_eq!(
            begins[1].get("name").unwrap().as_str(),
            Some("wave 1 → cluster 2")
        );
    }

    #[test]
    fn machine_tracks_render_slices_and_instants_with_names() {
        let entries = [
            entry(
                0,
                0,
                JournalEvent::Notify {
                    machine: 7,
                    release: 0,
                },
            ),
            entry(
                3,
                1,
                JournalEvent::Fault {
                    fault: FaultKind::Loss,
                    machine: 7,
                },
            ),
            entry(
                10,
                2,
                JournalEvent::Retry {
                    machine: 7,
                    release: 0,
                    attempt: 0,
                },
            ),
            entry(
                20,
                3,
                JournalEvent::Test {
                    machine: 7,
                    release: 0,
                    problem: 3,
                },
            ),
            entry(
                35,
                4,
                JournalEvent::Test {
                    machine: 7,
                    release: 0,
                    problem: NO_PROBLEM,
                },
            ),
        ];
        let doc = trace(&entries, 50, &TraceConfig::default());
        let ph = phases(&doc);
        assert!(ph.contains(&("M", "thread_name")));
        assert!(ph.contains(&("X", "test+integrate")));
        assert!(ph.contains(&("i", "retry #0")));
        assert!(ph.contains(&("i", "loss")));
        assert!(ph.contains(&("i", "p3")));
        // The thread metadata carries the resolved machine name.
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let thread = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .unwrap();
        assert_eq!(
            thread.get("args").unwrap().get("name").unwrap().as_str(),
            Some("m7")
        );
        // The complete slice spans notify -> pass.
        let x = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(x.get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(x.get("dur").unwrap().as_u64(), Some(35));
    }

    #[test]
    fn track_sampling_is_bounded_and_unconverged_machines_close_at_run_end() {
        let mut entries = Vec::new();
        for m in 0..100u32 {
            entries.push(entry(
                u64::from(m),
                u64::from(m),
                JournalEvent::Notify {
                    machine: m,
                    release: 0,
                },
            ));
        }
        let cfg = TraceConfig {
            max_machine_tracks: 8,
        };
        let doc = trace(&entries, 500, &cfg);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let tracks = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .count();
        assert!(tracks <= 8, "sampled {tracks} tracks");
        assert!(tracks >= 1);
        // None converged: every sampled machine gets an unconverged
        // slice ending at run end.
        let unconverged: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("test (unconverged)"))
            .collect();
        assert_eq!(unconverged.len(), tracks);
        for x in unconverged {
            let ts = x.get("ts").unwrap().as_u64().unwrap();
            let dur = x.get("dur").unwrap().as_u64().unwrap();
            assert_eq!(ts + dur, 500);
        }
    }

    #[test]
    fn zero_tracks_disables_machine_sampling() {
        let entries = [entry(
            0,
            0,
            JournalEvent::Notify {
                machine: 0,
                release: 0,
            },
        )];
        let doc = trace(
            &entries,
            10,
            &TraceConfig {
                max_machine_tracks: 0,
            },
        );
        let ph = phases(&doc);
        assert!(!ph.iter().any(|(p, _)| *p == "X" || *p == "i"));
        // Wave slice still present.
        assert!(ph.contains(&("b", "stage 0")));
    }
}
