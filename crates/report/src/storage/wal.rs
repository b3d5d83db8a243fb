//! Journaled batch frames: the one on-disk record format.
//!
//! Every ingest batch — boundary [`crate::Report`]s or pre-interned
//! records — is journaled as one [`WalFrame`] carrying:
//!
//! * `start_seq`: the first sequence number the batch claimed, used on
//!   replay to skip duplicated tail frames and to detect gaps;
//! * the **intern-table deltas**: every machine / signature / release
//!   name interned since the previous frame was journaled. Replaying
//!   deltas in frame order reproduces the exact dense-id assignment of
//!   the live repository, so the id-based records that follow resolve
//!   to the same names. A machine or signature delta is written in the
//!   name table's own layout ([`NameTable::run_from`]): the count, each
//!   name's `u32` end offset from the start of the run, then the names'
//!   bytes back to back — one copy out of the table to write, one
//!   UTF-8 check and one pass over the ends to read, and one copy back
//!   in to replay while the names ascend
//!   ([`NameTable::try_append_run`]). A release delta is its
//!   `(package, version)` pairs as length-prefixed strings. A fleet's
//!   table the live repository adopted ([`Urr::intern_fleet`]) is not
//!   special here: its names are the head of the first frame's machine
//!   delta, and the recovered repository owns them. Every interned name
//!   is written, reported on or not, so every one recovers its id;
//!   replay interns a delta in the order it was written, so a table
//!   whose names ascended live ascends again;
//! * the records: each one's row of four interned ids, then its payload
//!   tag — a 0 byte for a record without a payload, or the free-form
//!   failure detail and reproduction image a boundary report brings.
//!
//! ```text
//! start_seq u64
//! machines  count u32 | end u32 × count | name bytes
//! sigs      count u32 | end u32 × count | name bytes
//! releases  count u32 | (package str, version str) × count
//! records   count u32 | (machine u32, cluster u32, release u32, sig u32,
//!                        payload) × count
//! ```
//!
//! A snapshot generation is a run of the same frames: the first starts
//! at sequence 0 and carries the three tables whole, the records follow
//! in sequence order. There is no second format, so
//! [`crate::DurableUrr::recover`] has one replay loop, and both it and
//! live ingest file every record through the same store insert — which
//! is what makes the `recover(snapshot + WAL) == live` property hold by
//! construction rather than by parallel-implementation luck. The live
//! side sizes a frame with [`wal_payload_len`] and writes it with
//! [`encode_wal_frame`], straight from the repository's tables, the
//! batch's rows (an interned batch's are read off its reports as they
//! are written) and the side table of payloads, into the store's
//! segment. [`WalFrame`] is what recovery decodes it into: the rows and
//! the payloads as the store keeps them, so replay hands them to the
//! store insert as they are, and the name runs still borrowed from the
//! frame's bytes: replay only reads a name to intern it, and the
//! interner makes the one copy that is kept.

use std::sync::Arc;

use mirage_telemetry::names::{NameTable, RunRefused};

use crate::image::ReportImage;
use crate::storage::wire::{
    get_string_list, put_len, put_str, put_string_list, put_u32, put_u64, put_u8, Cursor, WireError,
};
use crate::urr::{Payload, Payloads, Row, Urr, MAX_CLUSTERS, NO_SIG};

/// A machine or signature delta as a frame carries it, its bytes
/// borrowed from the frame: name `i` is `bytes[ends[i - 1]..ends[i]]`,
/// the first starting at 0 — [`NameTable::run_from`]'s layout, checked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NameRun<'a> {
    /// The names' bytes, back to back.
    pub(crate) bytes: &'a str,
    /// Where each name ends in `bytes`: never decreasing, each on a
    /// character boundary, the last at `bytes.len()`.
    pub(crate) ends: Vec<u32>,
}

/// One journaled deposit batch, decoded from (and its names borrowing)
/// the frame payload `'a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalFrame<'a> {
    /// First sequence number claimed by the batch.
    pub(crate) start_seq: u64,
    /// Machine names interned since the previous frame (dense ids
    /// continue from the previous table length).
    pub(crate) machine_delta: NameRun<'a>,
    /// Signature names interned since the previous frame.
    pub(crate) sig_delta: NameRun<'a>,
    /// `(package, version)` releases interned since the previous frame.
    pub(crate) release_delta: Vec<(&'a str, &'a str)>,
    /// The batch's rows, in sequence order (`seq = start_seq + index`;
    /// the sequence number itself is not written).
    pub(crate) rows: Vec<Row>,
    /// The payloads of the rows that carry one, by sequence number.
    pub(crate) payloads: Payloads,
}

/// The bytes [`put_payload`] writes for a record's `payload`.
fn payload_len(payload: Option<&Payload>) -> usize {
    let list = |items: &[String]| 4 + items.iter().map(|s| 4 + s.len()).sum::<usize>();
    match payload {
        None => 1,
        Some(p) => {
            let image = p.image.as_ref().map_or(0, |img| {
                4 + img.sandbox_digest.len()
                    + list(&img.env_context)
                    + list(&img.replayed_inputs)
                    + list(&img.observed_outputs)
            });
            1 + 4 + p.detail.len() + 1 + image
        }
    }
}

/// Encodes a record's optional payload (detail + reproduction image).
fn put_payload(buf: &mut Vec<u8>, payload: Option<&Payload>) {
    match payload {
        None => put_u8(buf, 0),
        Some(p) => {
            put_u8(buf, 1);
            put_str(buf, &p.detail);
            match &p.image {
                None => put_u8(buf, 0),
                Some(img) => {
                    put_u8(buf, 1);
                    put_str(buf, &img.sandbox_digest);
                    put_string_list(buf, &img.env_context);
                    put_string_list(buf, &img.replayed_inputs);
                    put_string_list(buf, &img.observed_outputs);
                }
            }
        }
    }
}

/// Decodes a record's optional payload written by [`put_payload`].
fn get_payload(cur: &mut Cursor<'_>) -> Result<Option<Payload>, WireError> {
    match cur.u8("payload option tag")? {
        0 => Ok(None),
        1 => {
            let detail = cur.str_("payload detail")?;
            let image = match cur.u8("image option tag")? {
                0 => None,
                1 => Some(ReportImage {
                    sandbox_digest: cur.str_("image digest")?,
                    env_context: get_string_list(cur, "image context")?,
                    replayed_inputs: get_string_list(cur, "image inputs")?,
                    observed_outputs: get_string_list(cur, "image outputs")?,
                }),
                tag => {
                    return Err(WireError::BadTag {
                        what: "image option",
                        tag,
                    })
                }
            };
            Ok(Some(Payload { detail, image }))
        }
        tag => Err(WireError::BadTag {
            what: "payload option",
            tag,
        }),
    }
}

/// Writes a name delta: the count, each name's end, then the bytes.
fn put_run(buf: &mut Vec<u8>, (bytes, ends): (&str, impl ExactSizeIterator<Item = u32>)) {
    put_len(buf, ends.len());
    for end in ends {
        put_u32(buf, end);
    }
    buf.extend_from_slice(bytes.as_bytes());
}

/// Reads a name delta written by [`put_run`], checking the ends against
/// the bytes once so that every name in it is a `str` slice.
fn get_run<'a>(cur: &mut Cursor<'a>, what: &'static str) -> Result<NameRun<'a>, WireError> {
    let n = cur.list_len(4, what)?;
    let (ends, _) = cur.take(4 * n, what)?.as_chunks::<4>();
    let ends: Vec<u32> = ends.iter().map(|&end| u32::from_le_bytes(end)).collect();
    let len = ends.last().map_or(0, |&end| end as usize);
    if len > cur.remaining() {
        return Err(WireError::Oversize { what });
    }
    let bytes = std::str::from_utf8(cur.take(len, what)?).map_err(|_| WireError::InvalidUtf8)?;
    let mut start = 0;
    for &end in &ends {
        if end < start {
            return Err(WireError::Corrupt {
                what: "wal delta name ends decrease",
            });
        }
        if !bytes.is_char_boundary(end as usize) {
            return Err(WireError::Corrupt {
                what: "wal delta name ends inside a character",
            });
        }
        start = end;
    }
    Ok(NameRun { bytes, ends })
}

/// The payload bytes [`encode_wal_frame`] writes for these deltas,
/// `rows` rows and their `payloads`, so the caller can size the buffer
/// before it is written.
pub(crate) fn wal_payload_len(
    machine_delta: (&str, impl ExactSizeIterator<Item = u32>),
    sig_delta: (&str, impl ExactSizeIterator<Item = u32>),
    release_delta: &[(impl AsRef<str>, impl AsRef<str>)],
    rows: usize,
    payloads: &[(u64, Payload)],
) -> usize {
    8 + (4 + 4 * machine_delta.1.len() + machine_delta.0.len())
        + (4 + 4 * sig_delta.1.len() + sig_delta.0.len())
        + 4
        + (release_delta.iter())
            .map(|(p, v)| 8 + p.as_ref().len() + v.as_ref().len())
            .sum::<usize>()
        + 4
        + 17 * rows
        + (payloads.iter())
            .map(|(_, p)| payload_len(Some(p)) - 1)
            .sum::<usize>()
}

/// Appends one frame payload, [`wal_payload_len`] bytes, to `buf` (the
/// caller wraps it in a checksummed frame) straight from the live
/// repository's tables: the name deltas are runs out of the tables
/// ([`NameTable::run_from`]), the rows are read as they are written and
/// `payloads` — the rows' payloads by sequence number, ascending, each
/// in `start_seq..start_seq + rows.len()` — are borrowed, so writing a
/// frame copies nothing it does not write.
pub(crate) fn encode_wal_frame(
    buf: &mut Vec<u8>,
    start_seq: u64,
    machine_delta: (&str, impl ExactSizeIterator<Item = u32>),
    sig_delta: (&str, impl ExactSizeIterator<Item = u32>),
    release_delta: &[(impl AsRef<str>, impl AsRef<str>)],
    rows: impl ExactSizeIterator<Item = Row>,
    payloads: &[(u64, Payload)],
) {
    put_u64(buf, start_seq);
    put_run(buf, machine_delta);
    put_run(buf, sig_delta);
    put_len(buf, release_delta.len());
    for (package, version) in release_delta {
        put_str(buf, package.as_ref());
        put_str(buf, version.as_ref());
    }
    put_len(buf, rows.len());
    let mut payloads = payloads.iter().peekable();
    for (i, row) in rows.enumerate() {
        let seq = start_seq + i as u64;
        put_u32(buf, row.machine);
        put_u32(buf, row.cluster);
        put_u32(buf, row.release);
        put_u32(buf, row.sig);
        let payload = payloads.next_if(|&&(at, _)| at == seq);
        put_payload(buf, payload.map(|(_, p)| p));
    }
    debug_assert!(payloads.next().is_none(), "a payload outside the frame");
}

impl<'a> WalFrame<'a> {
    /// Decodes a frame payload, rejecting malformed input cleanly.
    pub(crate) fn decode(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(bytes);
        let start_seq = cur.u64("wal start_seq")?;
        let machine_delta = get_run(&mut cur, "wal machine delta")?;
        let sig_delta = get_run(&mut cur, "wal sig delta")?;
        let n_rel = cur.list_len(8, "wal release delta")?;
        let mut release_delta = Vec::with_capacity(n_rel);
        for _ in 0..n_rel {
            let package = cur.str_ref("wal release package")?;
            let version = cur.str_ref("wal release version")?;
            release_delta.push((package, version));
        }
        let n_recs = cur.list_len(17, "wal records")?;
        if start_seq.checked_add(n_recs as u64).is_none() {
            return Err(WireError::Corrupt {
                what: "wal sequence range overflows",
            });
        }
        let mut rows = Vec::with_capacity(n_recs);
        let mut payloads = Payloads::new();
        for seq in start_seq..start_seq + n_recs as u64 {
            rows.push(Row {
                machine: cur.u32("wal rec machine")?,
                cluster: cur.u32("wal rec cluster")?,
                release: cur.u32("wal rec release")?,
                sig: cur.u32("wal rec sig")?,
            });
            if let Some(payload) = get_payload(&mut cur)? {
                payloads.push((seq, payload));
            }
        }
        cur.finish("wal frame")?;
        Ok(WalFrame {
            start_seq,
            machine_delta,
            sig_delta,
            release_delta,
            rows,
            payloads,
        })
    }

    /// Checks every interned id in `rows` against the repository's
    /// table lengths, and every cluster id against [`MAX_CLUSTERS`] —
    /// the structural-integrity gate replay runs before applying a
    /// decoded frame, so no id a frame carries sizes a table the bytes
    /// did not pay for.
    pub(crate) fn validate_ids(&self, urr: &Urr) -> Result<(), WireError> {
        let machines = urr.machines.read().expect("urr poisoned").len() as u64;
        let sigs = urr.sigs.read().expect("urr poisoned").len() as u64;
        let releases = urr.releases.read().expect("urr poisoned").pairs.len() as u64;
        for row in &self.rows {
            if u64::from(row.machine) >= machines {
                return Err(WireError::Corrupt {
                    what: "wal rec machine id out of range",
                });
            }
            if row.sig != NO_SIG && u64::from(row.sig) >= sigs {
                return Err(WireError::Corrupt {
                    what: "wal rec sig id out of range",
                });
            }
            if u64::from(row.release) >= releases {
                return Err(WireError::Corrupt {
                    what: "wal rec release id out of range",
                });
            }
            if row.cluster >= MAX_CLUSTERS {
                return Err(WireError::Corrupt {
                    what: "wal rec cluster id out of range",
                });
            }
        }
        Ok(())
    }

    /// Re-interns the frame's name deltas, reproducing the dense-id
    /// assignment the live repository had when the frame was journaled.
    /// Every delta name must take the next dense id of its table: a
    /// name the table already holds would shift every id after it. A
    /// machine or signature run that breaks this interns none of its
    /// names; the tables before it keep theirs.
    pub(crate) fn intern_deltas(&self, urr: &Urr) -> Result<(), WireError> {
        let append = |table: &mut NameTable, run: &NameRun<'_>| {
            (table.try_append_run(run.bytes, &run.ends)).map_err(|why| match why {
                RunRefused::Repeat => WireError::Corrupt {
                    what: "wal delta repeats an interned name",
                },
                // A name table's offsets are `u32`: no journal this
                // program wrote holds more names than one takes.
                RunRefused::Full => WireError::Corrupt {
                    what: "wal delta overflows a name table",
                },
            })
        };
        if !self.machine_delta.ends.is_empty() {
            let mut table = urr.machines.write().expect("urr poisoned");
            // Every delta name must be new, so a shared table is copied
            // up front.
            append(Arc::make_mut(&mut table), &self.machine_delta)?;
        }
        if !self.sig_delta.ends.is_empty() {
            append(
                &mut urr.sigs.write().expect("urr poisoned"),
                &self.sig_delta,
            )?;
        }
        let first = urr.releases.read().expect("urr poisoned").pairs.len();
        for (i, (package, version)) in self.release_delta.iter().enumerate() {
            if urr.intern_release(package, version).0 as usize != first + i {
                return Err(WireError::Corrupt {
                    what: "wal delta repeats an interned name",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WalFrame<'_> {
        /// The layout written out name by name, each end summed from
        /// the lengths before it: the reference [`encode_wal_frame`]'s
        /// copies out of a table must match byte for byte.
        fn encode(&self) -> Vec<u8> {
            let mut buf = Vec::with_capacity(64 + self.rows.len() * 17);
            put_u64(&mut buf, self.start_seq);
            for delta in [&self.machine_delta, &self.sig_delta] {
                let names = delta.names();
                put_len(&mut buf, names.len());
                let mut end = 0;
                for name in &names {
                    end += name.len() as u32;
                    put_u32(&mut buf, end);
                }
                for name in &names {
                    buf.extend_from_slice(name.as_bytes());
                }
            }
            put_len(&mut buf, self.release_delta.len());
            for (package, version) in &self.release_delta {
                put_str(&mut buf, package);
                put_str(&mut buf, version);
            }
            put_len(&mut buf, self.rows.len());
            for (i, row) in self.rows.iter().enumerate() {
                let seq = self.start_seq + i as u64;
                put_u32(&mut buf, row.machine);
                put_u32(&mut buf, row.cluster);
                put_u32(&mut buf, row.release);
                put_u32(&mut buf, row.sig);
                let payload = self.payloads.iter().find(|(at, _)| *at == seq);
                put_payload(&mut buf, payload.map(|(_, p)| p));
            }
            buf
        }
    }

    impl NameRun<'_> {
        /// The run's names, one slice each.
        fn names(&self) -> Vec<&str> {
            let starts = std::iter::once(0).chain(self.ends.iter().copied());
            (starts.zip(&self.ends))
                .map(|(start, &end)| &self.bytes[start as usize..end as usize])
                .collect()
        }
    }

    /// `names` as a frame's delta carries them.
    fn run(names: &[&str]) -> NameRun<'static> {
        let bytes: &'static str = names.concat().leak();
        let ends = (names.iter())
            .scan(0, |end, name| {
                *end += name.len() as u32;
                Some(*end)
            })
            .collect();
        NameRun { bytes, ends }
    }

    fn encode_borrowed(frame: &WalFrame<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        let (machines, sigs) = (&frame.machine_delta, &frame.sig_delta);
        encode_wal_frame(
            &mut buf,
            frame.start_seq,
            (machines.bytes, machines.ends.iter().copied()),
            (sigs.bytes, sigs.ends.iter().copied()),
            &frame.release_delta,
            frame.rows.iter().copied(),
            &frame.payloads,
        );
        let len = wal_payload_len(
            (machines.bytes, machines.ends.iter().copied()),
            (sigs.bytes, sigs.ends.iter().copied()),
            &frame.release_delta,
            frame.rows.len(),
            &frame.payloads,
        );
        assert_eq!(buf.len(), len, "a frame is the size it was given");
        buf
    }

    /// A frame of `rows`, no payloads and no deltas.
    fn frame_of(start_seq: u64, rows: Vec<Row>) -> WalFrame<'static> {
        WalFrame {
            start_seq,
            machine_delta: NameRun::default(),
            sig_delta: NameRun::default(),
            release_delta: vec![],
            rows,
            payloads: Payloads::new(),
        }
    }

    fn row(machine: u32, release: u32, sig: u32) -> Row {
        Row {
            machine,
            cluster: 0,
            release,
            sig,
        }
    }

    #[test]
    fn borrowed_encoder_writes_the_owned_encoders_bytes() {
        for frame in [sample_frame(), frame_of(0, vec![])] {
            assert_eq!(encode_borrowed(&frame), frame.encode());
        }
    }

    fn sample_frame() -> WalFrame<'static> {
        WalFrame {
            start_seq: 17,
            machine_delta: run(&["m\"quote", "日本語", ""]),
            sig_delta: run(&["php/crash\n"]),
            release_delta: vec![("mysql", "5.0.27")],
            rows: vec![
                Row {
                    cluster: 3,
                    ..row(0, 0, NO_SIG)
                },
                row(1, 0, 0),
            ],
            payloads: vec![(
                18,
                Payload {
                    detail: "tab\there".into(),
                    image: Some(ReportImage::new(
                        "digest",
                        vec!["ctx".into()],
                        vec![],
                        vec!["out-🦀".into()],
                    )),
                },
            )],
        }
    }

    #[test]
    fn frame_roundtrip_with_hostile_strings() {
        let frame = sample_frame();
        assert_eq!(WalFrame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn empty_frame_roundtrip() {
        let frame = frame_of(0, vec![]);
        assert_eq!(WalFrame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_frame().encode();
        for cut in 0..bytes.len() {
            assert!(
                WalFrame::decode(&bytes[..cut]).is_err(),
                "truncation at byte {cut} decoded successfully"
            );
        }
    }

    /// The deltas are borrowed from the payload, not checked any less:
    /// a name that is not UTF-8, one longer than the payload, and one
    /// the payload ends inside are rejected, in each of the three
    /// tables. (The run layout's own hostile shapes are replayed in
    /// `durable::tests::hostile_name_runs_end_replay_with_the_prefix_kept`.)
    #[test]
    fn hostile_delta_names_are_rejected() {
        let frame = WalFrame {
            machine_delta: run(&["a-machine"]),
            sig_delta: run(&["a-signature"]),
            release_delta: vec![("a-package", "a-version")],
            ..frame_of(3, vec![])
        };
        let bytes = frame.encode();
        assert_eq!(WalFrame::decode(&bytes).unwrap(), frame);
        for (name, what) in [
            ("a-machine", "wal machine delta"),
            ("a-signature", "wal sig delta"),
            ("a-package", "wal release package"),
            ("a-version", "wal release version"),
        ] {
            let at = (bytes.windows(name.len()))
                .position(|w| w == name.as_bytes())
                .unwrap();
            let mut bad = bytes.clone();
            bad[at + 1] = 0xff;
            assert_eq!(
                WalFrame::decode(&bad),
                Err(WireError::InvalidUtf8),
                "{what}"
            );
            // The length a string carries ahead of it; the end a run's
            // one name carries ahead of it and its count.
            let mut bad = bytes.clone();
            let past = (bytes.len() - at + 1) as u32;
            bad[at - 4..at].copy_from_slice(&past.to_le_bytes());
            assert_eq!(
                WalFrame::decode(&bad),
                Err(WireError::Oversize { what }),
                "{what}"
            );
            // What remains cannot hold the announced name (or, for a
            // release, the announced pair).
            assert!(
                matches!(
                    WalFrame::decode(&bytes[..at + 2]),
                    Err(WireError::Oversize { .. })
                ),
                "{what}"
            );
        }
    }

    /// Each way a run's ends can fail to describe its bytes is a clean
    /// error of the delta it is in, never a panic or a name that is not
    /// one.
    #[test]
    fn hostile_name_runs_are_rejected() {
        let corrupt = |what| Err(WireError::Corrupt { what });
        let decode = |machine_delta: NameRun<'static>| {
            let frame = WalFrame {
                machine_delta,
                ..frame_of(0, vec![])
            };
            WalFrame::decode(encode_borrowed(&frame).leak())
        };
        let ends = |bytes: &'static str, ends: &[u32]| NameRun {
            bytes,
            ends: ends.to_vec(),
        };
        // Well formed, empty names and a multi-byte one included.
        let fine = ends("aé", &[0, 1, 1, 3]);
        assert_eq!(decode(fine.clone()).unwrap().machine_delta, fine);
        assert_eq!(
            decode(fine).unwrap().machine_delta.names(),
            ["", "a", "", "é"]
        );
        // Ends that go backwards.
        assert_eq!(
            decode(ends("abc", &[2, 1, 3])),
            corrupt("wal delta name ends decrease")
        );
        // An end that splits a multi-byte character.
        assert_eq!(
            decode(ends("aé", &[2, 3])),
            corrupt("wal delta name ends inside a character")
        );
        // A last end past what the payload holds.
        let mut bytes = frame_bytes(ends("ab", &[2]));
        bytes[12..16].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(
            WalFrame::decode(&bytes),
            Err(WireError::Oversize {
                what: "wal machine delta"
            })
        );
        // A count larger than the payload's remainder.
        let mut bytes = frame_bytes(ends("ab", &[2]));
        bytes[8..12].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert_eq!(
            WalFrame::decode(&bytes),
            Err(WireError::Oversize {
                what: "wal machine delta"
            })
        );
    }

    /// The encoded bytes of a frame carrying `machine_delta` alone,
    /// written as given.
    fn frame_bytes(machine_delta: NameRun<'static>) -> Vec<u8> {
        encode_borrowed(&WalFrame {
            machine_delta,
            ..frame_of(0, vec![])
        })
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_frame().encode();
        bytes.push(0);
        assert!(WalFrame::decode(&bytes).is_err());
    }

    #[test]
    fn bad_option_tags_are_rejected() {
        let mut bytes = frame_of(0, vec![row(0, 0, 0)]).encode();
        // The final byte is the payload option tag; make it undefined.
        *bytes.last_mut().unwrap() = 7;
        assert!(matches!(
            WalFrame::decode(&bytes),
            Err(WireError::BadTag { tag: 7, .. })
        ));
    }

    #[test]
    fn a_sequence_range_past_u64_is_rejected() {
        let bytes = frame_of(u64::MAX, vec![row(0, 0, NO_SIG)]).encode();
        assert!(matches!(
            WalFrame::decode(&bytes),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn validate_ids_rejects_out_of_range_records() {
        let urr = Urr::new();
        urr.intern_machines(["m0"]);
        urr.intern_release("p", "v");
        let ok = frame_of(0, vec![row(0, 0, NO_SIG)]);
        assert!(ok.validate_ids(&urr).is_ok());
        for (machine, sig, release) in [(9, NO_SIG, 0), (0, 5, 0), (0, NO_SIG, 9)] {
            let bad = frame_of(0, vec![row(machine, release, sig)]);
            assert!(bad.validate_ids(&urr).is_err());
        }
        let last = Row {
            cluster: MAX_CLUSTERS - 1,
            ..row(0, 0, NO_SIG)
        };
        assert!(frame_of(0, vec![last]).validate_ids(&urr).is_ok());
        let past = Row {
            cluster: MAX_CLUSTERS,
            ..last
        };
        assert!(frame_of(0, vec![past]).validate_ids(&urr).is_err());
    }

    #[test]
    fn intern_deltas_rejects_a_name_the_table_already_holds() {
        let urr = Urr::new();
        urr.intern_machine("m0");
        urr.intern_signature("s0");
        urr.intern_release("p", "v");
        let deltas = |machine: &'static str, sig: &'static str, version: &'static str| WalFrame {
            machine_delta: run(&[machine]),
            sig_delta: run(&[sig]),
            release_delta: vec![("p", version)],
            ..frame_of(0, vec![])
        };
        assert!(deltas("m1", "s1", "w").intern_deltas(&urr).is_ok());
        // Each case trips on a later table than the one before it, and
        // leaves the tables ahead of that one extended.
        for (machine, sig, version) in [("m0", "s2", "x"), ("m2", "s0", "x"), ("m3", "s3", "v")] {
            assert!(deltas(machine, sig, version).intern_deltas(&urr).is_err());
        }
    }

    /// A machine delta that names a machine the table already holds is
    /// corrupt whichever way the table finds it: still its own index
    /// (the names so far ascend: the repeat is the last name, or one a
    /// binary search finds) or hashed.
    #[test]
    fn a_repeated_machine_name_is_corrupt_however_the_table_is_indexed() {
        let repeats = Err(WireError::Corrupt {
            what: "wal delta repeats an interned name",
        });
        for held in [["m0", "m1", "m2"], ["m1", "m0", "m2"]] {
            let replay = |delta: &[&'static str]| {
                let urr = Urr::new();
                urr.intern_machines(held);
                let frame = WalFrame {
                    machine_delta: run(delta),
                    ..frame_of(0, vec![])
                };
                (frame.intern_deltas(&urr), urr)
            };
            // The last name held, an earlier one, and one the delta
            // itself brought — first and after a new name.
            for delta in [
                &["m2"][..],
                &["m0"],
                &["m3", "m2"],
                &["m3", "m1"],
                &["m3", "m3"],
            ] {
                assert_eq!(replay(delta).0, repeats, "{held:?} + {delta:?}");
            }
            // Names it lacks go in, in any order, under the refs
            // interning them live gave.
            for delta in [&["m3", "m4"][..], &["m4", "m3"], &["a", "m3"]] {
                let (result, urr) = replay(delta);
                assert_eq!(result, Ok(()), "{held:?} + {delta:?}");
                let all = || held.iter().chain(delta).copied();
                assert_eq!(
                    urr.intern_machines(all()),
                    Urr::new().intern_machines(all()),
                    "{held:?} + {delta:?}"
                );
            }
        }
    }
}
