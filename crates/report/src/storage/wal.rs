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
//!   to the same names. A fleet's table the live repository adopted
//!   ([`Urr::intern_fleet`]) is not special here: its names are the
//!   head of the first frame's machine delta, and the recovered
//!   repository owns them. Replay interns a delta in the order it was
//!   written, so a table whose names ascended live ascends again and
//!   is recovered by appending;
//! * the records themselves as interned ids, with the optional
//!   free-form payload (failure detail + reproduction image) inlined
//!   for boundary reports.
//!
//! A snapshot generation is a run of the same frames: the first starts
//! at sequence 0 and carries the three tables whole, the records follow
//! in sequence order. There is no second format, so
//! [`crate::DurableUrr::recover`] has one replay loop, and both it and
//! live ingest file every record through the same store insert — which
//! is what makes the `recover(snapshot + WAL) == live` property hold by
//! construction rather than by parallel-implementation luck. The live
//! side writes a frame with [`encode_wal_frame`], straight from the
//! repository's tables; [`WalFrame`] is what recovery decodes it into,
//! its deltas still borrowed from the frame's bytes: replay only reads a
//! name to intern it, and the interner makes the one copy that is kept.

use std::sync::Arc;

use crate::image::ReportImage;
use crate::storage::wire::{
    get_str_list, get_string_list, put_len, put_str, put_string_list, put_u32, put_u64, put_u8,
    Cursor, WireError,
};
use crate::urr::{Payload, Rec, Urr, NO_SIG};

/// One journaled deposit batch, decoded from (and its names borrowing)
/// the frame payload `'a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalFrame<'a> {
    /// First sequence number claimed by the batch.
    pub(crate) start_seq: u64,
    /// Machine names interned since the previous frame (dense ids
    /// continue from the previous table length).
    pub(crate) machine_delta: Vec<&'a str>,
    /// Signature names interned since the previous frame.
    pub(crate) sig_delta: Vec<&'a str>,
    /// `(package, version)` releases interned since the previous frame.
    pub(crate) release_delta: Vec<(&'a str, &'a str)>,
    /// The batch records, in sequence order (`seq = start_seq + index`;
    /// the sequence number itself is not written).
    pub(crate) recs: Vec<Rec>,
}

/// Encodes an optional record payload (detail + reproduction image).
fn put_payload(buf: &mut Vec<u8>, payload: &Option<Box<Payload>>) {
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

/// Decodes an optional record payload written by [`put_payload`].
fn get_payload(cur: &mut Cursor<'_>) -> Result<Option<Box<Payload>>, WireError> {
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
            Ok(Some(Box::new(Payload { detail, image })))
        }
        tag => Err(WireError::BadTag {
            what: "payload option",
            tag,
        }),
    }
}

/// Appends one frame payload to `buf` (the caller wraps it in a
/// checksummed frame) straight from the live repository's tables: the
/// deltas and the records are borrowed, so writing a frame copies
/// nothing it does not write.
pub(crate) fn encode_wal_frame<'n, 'r>(
    buf: &mut Vec<u8>,
    start_seq: u64,
    machine_delta: impl ExactSizeIterator<Item = &'n str>,
    sig_delta: impl ExactSizeIterator<Item = &'n str>,
    release_delta: &[(impl AsRef<str>, impl AsRef<str>)],
    recs: impl ExactSizeIterator<Item = &'r Rec>,
) {
    buf.reserve(64 + recs.len() * 17);
    put_u64(buf, start_seq);
    put_string_list(buf, machine_delta);
    put_string_list(buf, sig_delta);
    put_len(buf, release_delta.len());
    for (package, version) in release_delta {
        put_str(buf, package.as_ref());
        put_str(buf, version.as_ref());
    }
    put_len(buf, recs.len());
    for rec in recs {
        put_u32(buf, rec.machine);
        put_u32(buf, rec.cluster);
        put_u32(buf, rec.release);
        put_u32(buf, rec.sig);
        put_payload(buf, &rec.payload);
    }
}

impl<'a> WalFrame<'a> {
    /// Decodes a frame payload, rejecting malformed input cleanly.
    pub(crate) fn decode(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(bytes);
        let start_seq = cur.u64("wal start_seq")?;
        let machine_delta = get_str_list(&mut cur, "wal machine delta")?;
        let sig_delta = get_str_list(&mut cur, "wal sig delta")?;
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
        let mut recs = Vec::with_capacity(n_recs);
        for _ in 0..n_recs {
            recs.push(Rec {
                machine: cur.u32("wal rec machine")?,
                cluster: cur.u32("wal rec cluster")?,
                release: cur.u32("wal rec release")?,
                sig: cur.u32("wal rec sig")?,
                payload: get_payload(&mut cur)?,
            });
        }
        cur.finish("wal frame")?;
        Ok(WalFrame {
            start_seq,
            machine_delta,
            sig_delta,
            release_delta,
            recs,
        })
    }

    /// Checks every interned id in `recs` against the repository's
    /// table lengths — the structural-integrity gate replay runs before
    /// applying a decoded frame.
    pub(crate) fn validate_ids(&self, urr: &Urr) -> Result<(), WireError> {
        let machines = urr.machines.read().expect("urr poisoned").len() as u64;
        let sigs = urr.sigs.read().expect("urr poisoned").len() as u64;
        let releases = urr.releases.read().expect("urr poisoned").pairs.len() as u64;
        for rec in &self.recs {
            if u64::from(rec.machine) >= machines {
                return Err(WireError::Corrupt {
                    what: "wal rec machine id out of range",
                });
            }
            if rec.sig != NO_SIG && u64::from(rec.sig) >= sigs {
                return Err(WireError::Corrupt {
                    what: "wal rec sig id out of range",
                });
            }
            if u64::from(rec.release) >= releases {
                return Err(WireError::Corrupt {
                    what: "wal rec release id out of range",
                });
            }
        }
        Ok(())
    }

    /// Re-interns the frame's name deltas, reproducing the dense-id
    /// assignment the live repository had when the frame was journaled.
    /// Every delta name must take the next dense id of its table: a
    /// name the table already holds would shift every id after it.
    pub(crate) fn intern_deltas(&self, urr: &Urr) -> Result<(), WireError> {
        // A name table's offsets are `u32`: no journal this program
        // wrote holds more names than one takes.
        const FULL: WireError = WireError::Corrupt {
            what: "wal delta overflows a name table",
        };
        let next_id = |id: u32, first: usize, i: usize| {
            if id as usize == first + i {
                Ok(())
            } else {
                Err(WireError::Corrupt {
                    what: "wal delta repeats an interned name",
                })
            }
        };
        if !self.machine_delta.is_empty() {
            let mut table = urr.machines.write().expect("urr poisoned");
            // Every delta name must be new, so a shared table is copied
            // up front.
            let table = Arc::make_mut(&mut table);
            let first = table.len();
            table.reserve(self.machine_delta.len());
            for (i, name) in self.machine_delta.iter().enumerate() {
                next_id(table.try_intern(name).ok_or(FULL)?, first, i)?;
            }
        }
        let first = urr.sigs.read().expect("urr poisoned").len();
        for (i, name) in self.sig_delta.iter().enumerate() {
            next_id(urr.try_intern_signature(name).ok_or(FULL)?.0, first, i)?;
        }
        let first = urr.releases.read().expect("urr poisoned").pairs.len();
        for (i, (package, version)) in self.release_delta.iter().enumerate() {
            next_id(urr.intern_release(package, version).0, first, i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WalFrame<'_> {
        /// The encoder as it was while journaling still built an owned
        /// frame: the reference [`encode_wal_frame`] must match byte
        /// for byte.
        fn encode(&self) -> Vec<u8> {
            let mut buf = Vec::with_capacity(64 + self.recs.len() * 17);
            put_u64(&mut buf, self.start_seq);
            put_len(&mut buf, self.machine_delta.len());
            for name in &self.machine_delta {
                put_str(&mut buf, name);
            }
            put_len(&mut buf, self.sig_delta.len());
            for name in &self.sig_delta {
                put_str(&mut buf, name);
            }
            put_len(&mut buf, self.release_delta.len());
            for (package, version) in &self.release_delta {
                put_str(&mut buf, package);
                put_str(&mut buf, version);
            }
            put_len(&mut buf, self.recs.len());
            for rec in &self.recs {
                put_u32(&mut buf, rec.machine);
                put_u32(&mut buf, rec.cluster);
                put_u32(&mut buf, rec.release);
                put_u32(&mut buf, rec.sig);
                put_payload(&mut buf, &rec.payload);
            }
            buf
        }
    }

    fn encode_borrowed(frame: &WalFrame<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_wal_frame(
            &mut buf,
            frame.start_seq,
            frame.machine_delta.iter().copied(),
            frame.sig_delta.iter().copied(),
            &frame.release_delta,
            frame.recs.iter(),
        );
        buf
    }

    /// A frame of `recs` and no deltas.
    fn frame_of(start_seq: u64, recs: Vec<Rec>) -> WalFrame<'static> {
        WalFrame {
            start_seq,
            machine_delta: vec![],
            sig_delta: vec![],
            release_delta: vec![],
            recs,
        }
    }

    fn rec(machine: u32, release: u32, sig: u32) -> Rec {
        Rec {
            machine,
            cluster: 0,
            release,
            sig,
            payload: None,
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
            machine_delta: vec!["m\"quote", "日本語", ""],
            sig_delta: vec!["php/crash\n"],
            release_delta: vec![("mysql", "5.0.27")],
            recs: vec![
                Rec {
                    cluster: 3,
                    ..rec(0, 0, NO_SIG)
                },
                Rec {
                    payload: Some(Box::new(Payload {
                        detail: "tab\there".into(),
                        image: Some(ReportImage::new(
                            "digest",
                            vec!["ctx".into()],
                            vec![],
                            vec!["out-🦀".into()],
                        )),
                    })),
                    ..rec(1, 0, 0)
                },
            ],
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
    /// the payload ends inside are rejected as the owned decoder
    /// rejected them, in each of the three tables.
    #[test]
    fn hostile_delta_names_are_rejected() {
        let frame = WalFrame {
            machine_delta: vec!["a-machine"],
            sig_delta: vec!["a-signature"],
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

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_frame().encode();
        bytes.push(0);
        assert!(WalFrame::decode(&bytes).is_err());
    }

    #[test]
    fn bad_option_tags_are_rejected() {
        let mut bytes = frame_of(0, vec![rec(0, 0, 0)]).encode();
        // The final byte is the payload option tag; make it undefined.
        *bytes.last_mut().unwrap() = 7;
        assert!(matches!(
            WalFrame::decode(&bytes),
            Err(WireError::BadTag { tag: 7, .. })
        ));
    }

    #[test]
    fn a_sequence_range_past_u64_is_rejected() {
        let bytes = frame_of(u64::MAX, vec![rec(0, 0, NO_SIG)]).encode();
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
        let ok = frame_of(0, vec![rec(0, 0, NO_SIG)]);
        assert!(ok.validate_ids(&urr).is_ok());
        for (machine, sig, release) in [(9, NO_SIG, 0), (0, 5, 0), (0, NO_SIG, 9)] {
            let bad = frame_of(0, vec![rec(machine, release, sig)]);
            assert!(bad.validate_ids(&urr).is_err());
        }
    }

    #[test]
    fn intern_deltas_rejects_a_name_the_table_already_holds() {
        let urr = Urr::new();
        urr.intern_machine("m0");
        urr.intern_signature("s0");
        urr.intern_release("p", "v");
        let deltas = |machine: &'static str, sig: &'static str, version: &'static str| WalFrame {
            machine_delta: vec![machine],
            sig_delta: vec![sig],
            release_delta: vec![("p", version)],
            ..frame_of(0, vec![])
        };
        assert!(deltas("m1", "s1", "w").intern_deltas(&urr).is_ok());
        // Each case trips on a later table than the one before it, and
        // leaves the names ahead of the repeat interned.
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
                    machine_delta: delta.to_vec(),
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
