//! A fleet's clustering inputs, computed once per distinct environment.
//!
//! The paper clusters machines because many of them share one
//! environment (§3.2). Two agents whose machines and traces agree on
//! everything [`UserAgent::clustering_input`] reads get the same input
//! up to the machine id, so the heuristic, the parsers and the diff run
//! once per environment, and every machine gets a copy of its
//! environment's input under its own id.
//!
//! An agent's environment is its `EnvKey`. Agents are grouped by a
//! 64-bit hash of the key and every match is confirmed by comparing the
//! keys in full, so a hash collision never merges two environments.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use mirage_cluster::par::{fan_out, worker_count};
use mirage_cluster::MachineInfo;
use mirage_fingerprint::{DiffSet, MachineFingerprint};
use mirage_trace::SyscallEvent;

use crate::agent::UserAgent;
use crate::vendor::Vendor;

/// Computes every agent's clustering input for `app`, in agent order.
///
/// Equal in value and order to calling [`UserAgent::clustering_input`]
/// on each agent, but the call runs once per distinct environment. The
/// keys, their grouping and the distinct inputs are computed on every
/// core; the per-machine copies are made on the calling thread, so the
/// whole fleet's inputs come from one allocator arena, and what the
/// workers made is freed on workers. The number of distinct
/// environments is counted on the vendor's telemetry as
/// `campaign.fleet_environments`.
pub fn fleet_inputs(
    agents: &[UserAgent],
    app: &str,
    vendor: &Vendor,
    reference: &MachineFingerprint,
) -> Vec<MachineInfo> {
    let (env_of, firsts) = environments(agents, app);
    vendor
        .telemetry
        .counter("campaign.fleet_environments", firsts.len() as u64);
    let made = par_chunks(firsts.len(), |envs| {
        (envs.map(|env| agents[firsts[env]].clustering_input(app, vendor, reference)))
            .collect::<Vec<_>>()
    });
    let inputs: Vec<&MachineInfo> = made.iter().flatten().collect();
    let copies = (agents.iter().zip(env_of))
        .map(|(agent, env)| {
            let input = inputs[env as usize];
            MachineInfo {
                diff: DiffSet {
                    machine: agent.machine.id.clone(),
                    parsed: input.diff.parsed.clone(),
                    content: input.diff.content.clone(),
                },
                overlapping_apps: input.overlapping_apps.clone(),
            }
        })
        .collect();
    drop_on_workers(made);
    copies
}

/// Groups the agents by environment: agent `i` is in environment
/// `env_of[i]`, whose first agent is `firsts[env]`. Each thread groups a
/// contiguous run of agents while their data is in cache; one pass then
/// merges the runs' classes, comparing their first agents only.
fn environments(agents: &[UserAgent], app: &str) -> (Vec<u32>, Vec<usize>) {
    let key = |i: usize| EnvKey {
        agent: &agents[i],
        app,
    };
    let runs = par_chunks(agents.len(), |run| {
        let hashes: Vec<u64> = run.clone().map(|i| key(i).digest()).collect();
        let (local_of, firsts) = group(&hashes, |a, b| key(run.start + a) == key(run.start + b));
        let firsts: Vec<(usize, u64)> = (firsts.into_iter())
            .map(|f| (run.start + f, hashes[f]))
            .collect();
        (local_of, firsts)
    });
    let locals: Vec<(usize, u64)> = (runs.iter())
        .flat_map(|(_, firsts)| firsts.iter().copied())
        .collect();
    let hashes: Vec<u64> = locals.iter().map(|&(_, hash)| hash).collect();
    let (env_of_local, firsts) = group(&hashes, |a, b| key(locals[a].0) == key(locals[b].0));
    let mut env_of = Vec::with_capacity(agents.len());
    let mut base = 0;
    for (local_of, run_firsts) in &runs {
        env_of.extend(
            local_of
                .iter()
                .map(|&local| env_of_local[base + local as usize]),
        );
        base += run_firsts.len();
    }
    drop_on_workers(runs);
    (env_of, firsts.into_iter().map(|l| locals[l].0).collect())
}

/// Everything [`UserAgent::clustering_input`] reads of one agent except
/// the machine id: the app's trace events (not [`mirage_trace::Trace`]'s
/// machine name or run id), the filesystem by content, the environment
/// variables, the installed applications, and every installed package's
/// version and manifest.
#[derive(Clone, Copy)]
struct EnvKey<'a> {
    agent: &'a UserAgent,
    app: &'a str,
}

impl<'a> EnvKey<'a> {
    /// The event logs of the app's runs, in recording order.
    fn traces(self) -> impl Iterator<Item = &'a [SyscallEvent]> {
        let app = self.app;
        (self.agent.runs.iter())
            .filter(move |run| run.app() == app)
            .map(|run| run.trace.events.as_slice())
    }

    /// The 64-bit hash agents are grouped by.
    fn digest(self) -> u64 {
        let mut hasher = KeyHasher(0);
        self.hash(&mut hasher);
        hasher.finish()
    }
}

impl Hash for EnvKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for events in self.traces() {
            events.hash(state);
        }
        let machine = &self.agent.machine;
        machine.fs.hash(state);
        machine.env.hash(state);
        for (name, spec) in &machine.apps {
            (name, &spec.package, &spec.exe).hash(state);
        }
        for package in machine.pkgs.iter() {
            (&package.name, package.version).hash(state);
            package.manifest().for_each(|path| path.hash(state));
        }
    }
}

impl PartialEq for EnvKey<'_> {
    /// The full comparison a hash match is confirmed by. Packages
    /// compare whole (files, dependencies), which is stricter than the
    /// version and manifest the input reads.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.agent.machine, &other.agent.machine);
        self.traces().eq(other.traces())
            && a.fs == b.fs
            && a.env == b.env
            && a.apps == b.apps
            && a.pkgs == b.pkgs
    }
}

/// Groups items into classes of equal keys, in item order: item `i`
/// belongs to class `env_of[i]`, and `firsts[c]` is class `c`'s first
/// item. `hashes[i]` only proposes the classes to try; `same(i, first)`
/// decides.
fn group(hashes: &[u64], same: impl Fn(usize, usize) -> bool) -> (Vec<u32>, Vec<usize>) {
    let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut firsts: Vec<usize> = Vec::new();
    let env_of = (hashes.iter().enumerate())
        .map(|(i, &hash)| {
            let classes = by_hash.entry(hash).or_default();
            if let Some(&class) = classes.iter().find(|&&c| same(i, firsts[c as usize])) {
                return class;
            }
            let class = firsts.len() as u32;
            firsts.push(i);
            classes.push(class);
            class
        })
        .collect();
    (env_of, firsts)
}

/// A word-at-a-time multiply-rotate hash (the FxHash step): quick on the
/// short strings a key is made of, and only ever a proposal.
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `f` over contiguous ranges that cover `0..n`, one range per thread
/// (up to `available_parallelism`); the results come back in range
/// order.
fn par_chunks<U: Send>(n: usize, f: impl Fn(Range<usize>) -> U + Sync) -> Vec<U> {
    let len = n.div_ceil(worker_count(n, 2, true)).max(1);
    let mut outs: Vec<Option<U>> = (0..n.div_ceil(len)).map(|_| None).collect();
    let buckets = (outs.iter_mut().enumerate())
        .map(|(c, out)| vec![(c * len..n.min((c + 1) * len), out)])
        .collect();
    fan_out(buckets, &|(range, out): (Range<usize>, &mut Option<U>)| {
        *out = Some(f(range));
    });
    outs.into_iter()
        .map(|out| out.expect("every range ran"))
        .collect()
}

/// Drops what [`par_chunks`] returned, each range's output on a thread
/// of its own when the ranges ran on threads.
///
/// glibc's malloc gives every thread a cache of freed blocks, whatever
/// arena they came from. A block a worker made and this thread freed
/// would sit in that cache, be handed out for the next small
/// allocation here, and keep every later growth of that value in the
/// worker's arena: whether the next fleet then lands in a worker arena
/// (megabytes of extra resident memory) would hang on thread timing.
fn drop_on_workers<U: Send>(outs: Vec<U>) {
    fan_out(outs.into_iter().map(|out| vec![out]).collect(), &drop);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hashes only propose: with every hash colliding, or every hash
    /// distinct, the classes are the classes of equal keys.
    #[test]
    fn a_hash_collision_never_merges_two_environments() {
        let keys = [3, 1, 3, 2, 1, 3];
        let same = |a: usize, b: usize| keys[a] == keys[b];
        let want = (vec![0, 1, 0, 2, 1, 0], vec![0, 1, 3]);
        assert_eq!(group(&[7; 6], same), want);
        let hashes: Vec<u64> = keys.iter().map(|&k| k * 1_000).collect();
        assert_eq!(group(&hashes, same), want);
    }

    /// `drop_on_workers` drops every range's output once, on any number
    /// of ranges.
    #[test]
    fn drop_on_workers_drops_every_output() {
        let held = std::sync::Arc::new(());
        for n in 0..=9 {
            drop_on_workers(par_chunks(n, |_| std::sync::Arc::clone(&held)));
            assert_eq!(std::sync::Arc::strong_count(&held), 1, "n = {n}");
        }
    }

    /// `par_chunks` covers `0..n` with contiguous ranges, each once,
    /// and answers in range order.
    #[test]
    fn par_chunks_cover_the_range_in_order() {
        for n in 0..=9 {
            let ranges = par_chunks(n, |range| range);
            let covered: Vec<usize> = ranges.iter().flat_map(Clone::clone).collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>());
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }
}
