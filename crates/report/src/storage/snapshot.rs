//! Compacted repository snapshots.
//!
//! A snapshot is a full, per-stripe serialisation of the sharded URR:
//! the three intern tables first, then each lock stripe's record
//! archive **and** its incrementally-maintained inverted index (group
//! slots, cluster tallies, release tallies, stripe counters). Loading
//! a snapshot therefore restores the repository without recomputing
//! anything: recovery cost is proportional to state size, not to query
//! complexity.
//!
//! The layout is stripe-faithful: the snapshot records its shard count
//! and the decoder rebuilds the repository with exactly that count, so
//! signature home shards (`hash(name) & mask`) land where the group
//! slots were serialised from. Word-packed membership bitsets are not
//! stored — they are rebuilt from the `(seq, id)` order vectors, which
//! carry the same information plus discovery order.
//!
//! Decoding is hostile-input safe: every interned id, tally length,
//! and sequence number is validated against the tables decoded before
//! it, and any violation is a typed [`WireError`], never a panic.

use std::sync::atomic::Ordering;

use crate::storage::wal::{get_payload, put_payload};
use crate::storage::wire::{
    get_string_list, put_len, put_str, put_string_list, put_u32, put_u64, Cursor, WireError,
};
use crate::urr::{GroupSlot, Rec, ReleaseSlot, Urr, NO_SIG};

/// Largest accepted shard count in a snapshot header. Live
/// repositories use `next_pow2(threads)`; anything beyond this is a
/// corrupt document, not a bigger machine.
const MAX_SHARDS: usize = 1 << 16;

/// Serialises the full repository state. The caller wraps the payload
/// in a checksummed frame ([`crate::storage::frame::KIND_SNAPSHOT`]).
///
/// The caller must guarantee no concurrent writers (the durable layer
/// holds its journal lock across the encode), so the per-stripe walk
/// observes one consistent state.
pub(crate) fn encode_snapshot(urr: &Urr) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    put_u32(&mut buf, urr.shards.len() as u32);
    put_u64(&mut buf, urr.next_seq());
    {
        let machines = urr.machines.read().expect("urr poisoned");
        put_string_list(&mut buf, machines.names_from(0));
    }
    {
        let sigs = urr.sigs.read().expect("urr poisoned");
        put_string_list(&mut buf, &sigs.inner.names);
    }
    {
        let releases = urr.releases.read().expect("urr poisoned");
        put_len(&mut buf, releases.pairs.len());
        for (package, version) in &releases.pairs {
            put_str(&mut buf, package);
            put_str(&mut buf, version);
        }
    }
    for stripe in urr.shards.iter() {
        let shard = stripe.lock().expect("urr poisoned");
        // Tallies travel before records and groups: their length bounds
        // every cluster id in the stripe (a record only ever tallies its
        // own stripe), which lets the decoder reject hostile cluster
        // ids before they can drive bitset allocation.
        put_len(&mut buf, shard.cluster_tallies.len());
        for (successes, failures) in &shard.cluster_tallies {
            put_u64(&mut buf, *successes as u64);
            put_u64(&mut buf, *failures as u64);
        }
        put_len(&mut buf, shard.release_tallies.len());
        for slot in &shard.release_tallies {
            put_u64(&mut buf, slot.successes as u64);
            put_u64(&mut buf, slot.failures as u64);
            put_u64(&mut buf, slot.first_seen);
        }
        put_len(&mut buf, shard.recs.len());
        for rec in &shard.recs {
            put_u32(&mut buf, rec.machine);
            put_u32(&mut buf, rec.cluster);
            put_u32(&mut buf, rec.release);
            put_u64(&mut buf, rec.seq);
            put_u32(&mut buf, rec.sig);
            put_payload(&mut buf, &rec.payload);
        }
        // Only live group slots travel; empty slots are an artefact of
        // table sizing and carry no information.
        let live = shard.groups.iter().enumerate().filter(|(_, s)| s.count > 0);
        put_len(&mut buf, live.clone().count());
        for (sig, slot) in live {
            put_u32(&mut buf, sig as u32);
            put_u64(&mut buf, slot.count as u64);
            put_u64(&mut buf, slot.first_seen);
            put_len(&mut buf, slot.machine_order.len());
            for (seq, machine) in &slot.machine_order {
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, *machine);
            }
            put_len(&mut buf, slot.cluster_order.len());
            for (seq, cluster) in &slot.cluster_order {
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, *cluster);
            }
        }
        put_u64(&mut buf, shard.successes as u64);
        put_u64(&mut buf, shard.failures as u64);
        put_u64(&mut buf, shard.image_bytes as u64);
        put_u64(&mut buf, shard.distinct as u64);
    }
    buf
}

/// Restores a repository from a snapshot payload. Returns a fully
/// populated [`Urr`] (telemetry detached — the durable layer attaches
/// its handle afterwards) or a typed error on any corruption.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Urr, WireError> {
    let mut cur = Cursor::new(bytes);
    let shard_count = cur.u32("snapshot shard count")? as usize;
    if shard_count == 0 || !shard_count.is_power_of_two() || shard_count > MAX_SHARDS {
        return Err(WireError::Corrupt {
            what: "snapshot shard count",
        });
    }
    let next_seq = cur.u64("snapshot next_seq")?;
    let urr = Urr::with_shards(shard_count);
    let machine_names = get_string_list(&mut cur, "snapshot machines")?;
    let sig_names = get_string_list(&mut cur, "snapshot sigs")?;
    let n_rel = cur.list_len(8, "snapshot releases")?;
    let mut release_pairs = Vec::with_capacity(n_rel);
    for _ in 0..n_rel {
        let package = cur.str_("snapshot release package")?;
        let version = cur.str_("snapshot release version")?;
        release_pairs.push((package, version));
    }
    let n_machines = machine_names.len() as u64;
    let n_sigs = sig_names.len() as u64;
    let n_releases = release_pairs.len() as u64;
    {
        let mut table = urr.machines.write().expect("urr poisoned");
        for name in &machine_names {
            table.intern(name);
        }
        if table.len() != machine_names.len() {
            return Err(WireError::Corrupt {
                what: "snapshot machine table has duplicate names",
            });
        }
    }
    for name in &sig_names {
        urr.intern_signature(name);
    }
    if urr.sigs.read().expect("urr poisoned").inner.names.len() != sig_names.len() {
        return Err(WireError::Corrupt {
            what: "snapshot sig table has duplicate names",
        });
    }
    for (package, version) in &release_pairs {
        urr.intern_release(package, version);
    }
    if urr.releases.read().expect("urr poisoned").pairs.len() != release_pairs.len() {
        return Err(WireError::Corrupt {
            what: "snapshot release table has duplicate pairs",
        });
    }
    let sig_homes: Vec<u32> = urr.sigs.read().expect("urr poisoned").shards.clone();
    for stripe_idx in 0..shard_count {
        let n_ct = cur.list_len(16, "snapshot cluster tallies")?;
        let mut cluster_tallies = Vec::with_capacity(n_ct);
        for _ in 0..n_ct {
            let successes = cur.u64_as_usize("snapshot cluster successes")?;
            let failures = cur.u64_as_usize("snapshot cluster failures")?;
            cluster_tallies.push((successes, failures));
        }
        let n_rt = cur.list_len(24, "snapshot release tallies")?;
        if n_rt as u64 > n_releases {
            return Err(WireError::Corrupt {
                what: "snapshot release tallies exceed release table",
            });
        }
        let mut release_tallies = Vec::with_capacity(n_rt);
        for _ in 0..n_rt {
            release_tallies.push(ReleaseSlot {
                successes: cur.u64_as_usize("snapshot release successes")?,
                failures: cur.u64_as_usize("snapshot release failures")?,
                first_seen: cur.u64("snapshot release first_seen")?,
            });
        }
        let n_recs = cur.list_len(25, "snapshot records")?;
        let mut recs = Vec::with_capacity(n_recs);
        for _ in 0..n_recs {
            let machine = cur.u32("snapshot rec machine")?;
            let cluster = cur.u32("snapshot rec cluster")?;
            let release = cur.u32("snapshot rec release")?;
            let seq = cur.u64("snapshot rec seq")?;
            let sig = cur.u32("snapshot rec sig")?;
            let payload = get_payload(&mut cur)?;
            if u64::from(machine) >= n_machines
                || u64::from(release) >= n_releases
                || (sig != NO_SIG && u64::from(sig) >= n_sigs)
                || seq >= next_seq
                || cluster as usize >= n_ct
            {
                return Err(WireError::Corrupt {
                    what: "snapshot rec out of range",
                });
            }
            recs.push(Rec {
                machine,
                cluster,
                release,
                seq,
                sig,
                payload,
            });
        }
        let n_groups = cur.list_len(28, "snapshot groups")?;
        let mut groups: Vec<(u32, GroupSlot)> = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let sig = cur.u32("snapshot group sig")?;
            if u64::from(sig) >= n_sigs || sig_homes[sig as usize] as usize != stripe_idx {
                return Err(WireError::Corrupt {
                    what: "snapshot group sig not homed to stripe",
                });
            }
            let count = cur.u64_as_usize("snapshot group count")?;
            if count == 0 {
                return Err(WireError::Corrupt {
                    what: "snapshot group with zero count",
                });
            }
            let first_seen = cur.u64("snapshot group first_seen")?;
            let mut slot = GroupSlot {
                count,
                first_seen,
                ..GroupSlot::default()
            };
            let n_m = cur.list_len(12, "snapshot group machines")?;
            for _ in 0..n_m {
                let seq = cur.u64("snapshot group machine seq")?;
                let machine = cur.u32("snapshot group machine id")?;
                if u64::from(machine) >= n_machines || !slot.machines.insert(machine) {
                    return Err(WireError::Corrupt {
                        what: "snapshot group machine order",
                    });
                }
                slot.machine_order.push((seq, machine));
            }
            let n_c = cur.list_len(12, "snapshot group clusters")?;
            for _ in 0..n_c {
                let seq = cur.u64("snapshot group cluster seq")?;
                let cluster = cur.u32("snapshot group cluster id")?;
                if cluster as usize >= n_ct || !slot.clusters.insert(cluster) {
                    return Err(WireError::Corrupt {
                        what: "snapshot group cluster order",
                    });
                }
                slot.cluster_order.push((seq, cluster));
            }
            groups.push((sig, slot));
        }
        let successes = cur.u64_as_usize("snapshot stripe successes")?;
        let failures = cur.u64_as_usize("snapshot stripe failures")?;
        let image_bytes = cur.u64_as_usize("snapshot stripe image bytes")?;
        let distinct = cur.u64_as_usize("snapshot stripe distinct")?;
        if distinct != groups.len() {
            return Err(WireError::Corrupt {
                what: "snapshot stripe distinct count mismatch",
            });
        }
        let mut shard = urr.lock_shard(stripe_idx);
        shard.recs = recs;
        if let Some(max_sig) = groups.iter().map(|(sig, _)| *sig).max() {
            shard
                .groups
                .resize_with(max_sig as usize + 1, GroupSlot::default);
        }
        for (sig, slot) in groups {
            shard.groups[sig as usize] = slot;
        }
        shard.distinct = distinct;
        shard.cluster_tallies = cluster_tallies;
        shard.release_tallies = release_tallies;
        shard.successes = successes;
        shard.failures = failures;
        shard.image_bytes = image_bytes;
    }
    cur.finish("snapshot")?;
    urr.seq.store(next_seq, Ordering::Relaxed);
    Ok(urr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ReportImage;
    use crate::report::Report;

    fn populated_urr() -> Urr {
        let urr = Urr::with_shards(4);
        urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
        urr.deposit(Report::failure(
            "m2",
            1,
            "mysql",
            "5.0.27",
            "php/crash",
            "stack",
            ReportImage::new("d", vec!["ctx".into()], vec!["in".into()], vec![]),
        ));
        urr.deposit(Report::failure(
            "m3",
            1,
            "mysql",
            "5.0.28",
            "mycnf/fail",
            "",
            ReportImage::default(),
        ));
        // An interned name never referenced by a record must survive.
        urr.intern_machine("spare-machine");
        urr
    }

    fn assert_urr_eq(a: &Urr, b: &Urr) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.next_seq(), b.next_seq());
        assert_eq!(a.failure_groups(), b.failure_groups());
        assert_eq!(a.cluster_failure_rates(), b.cluster_failure_rates());
        assert_eq!(a.release_summaries(), b.release_summaries());
        assert_eq!(a.all(), b.all());
    }

    #[test]
    fn snapshot_roundtrip_restores_every_surface() {
        let urr = populated_urr();
        let restored = decode_snapshot(&encode_snapshot(&urr)).unwrap();
        assert_urr_eq(&urr, &restored);
        assert_eq!(restored.shard_count(), urr.shard_count());
        // Unreferenced interned names keep their dense ids.
        assert_eq!(
            restored.intern_machine("spare-machine"),
            urr.intern_machine("spare-machine")
        );
        // New deposits continue the sequence.
        assert_eq!(restored.deposit(Report::success("x", 0, "p", "1")), 3);
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let urr = Urr::with_shards(1);
        let restored = decode_snapshot(&encode_snapshot(&urr)).unwrap();
        assert_eq!(restored.stats(), urr.stats());
        assert_eq!(restored.shard_count(), 1);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_snapshot(&populated_urr());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at byte {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let bytes = encode_snapshot(&populated_urr());
        // Shard count zero.
        let mut b = bytes.clone();
        b[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_snapshot(&b).is_err());
        // Shard count not a power of two.
        let mut b = bytes.clone();
        b[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(decode_snapshot(&b).is_err());
        // Absurd shard count.
        let mut b = bytes;
        b[0..4].copy_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(decode_snapshot(&b).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_snapshot(&populated_urr());
        bytes.push(0);
        assert!(decode_snapshot(&bytes).is_err());
    }
}
