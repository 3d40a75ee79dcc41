//! Crash-safe campaign checkpoint journal.
//!
//! A resilient campaign ([`Campaign::run_resilient`](crate::Campaign::run_resilient)
//! with [`Campaign::with_checkpoint`](crate::Campaign::with_checkpoint))
//! appends one JSONL record per completed cell so a preempted sweep can
//! resume where it stopped instead of recomputing everything:
//!
//! ```text
//! {"Manifest":{"version":1,"cells":3,"digests":[...]}}   <- line 1
//! {"Cell":{"index":2,"digest":...,"attempts":1,"result":{...}}}
//! {"Cell":{"index":0,"digest":...,"attempts":2,"result":{...}}}
//! ```
//!
//! * **Config-digest keying.** The manifest pins a [`config_digest`] per
//!   cell (FNV-1a over the config's canonical JSON). Resuming against a
//!   journal whose manifest does not match the current campaign —
//!   different cell count, reordered grid, edited configs — is a typed
//!   [`JournalError::ManifestMismatch`], never a silent mix of results
//!   from two different sweeps.
//! * **Crash-safe append.** Records are written under a poison-recovering
//!   lock as one `write_all` + flush + `sync_data` each, so a crash can
//!   lose at most the record being written — and a torn *trailing* line is
//!   tolerated on load (the cell simply reruns). A torn line in the
//!   middle of the file means outside interference and is reported as
//!   [`JournalError::Corrupt`].
//! * **Completion order.** Cells are appended as workers finish, in any
//!   order; `Journal::open` returns restored results keyed by cell
//!   index, and the campaign reassembles input order.

use crate::experiment::{ExperimentConfig, ExperimentResult};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Journal format version; bumped on any record-shape change.
const JOURNAL_VERSION: u32 = 1;

/// Why a checkpoint journal could not be opened, read, or appended to.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The journal file could not be created, read, or written.
    Io {
        /// Path of the journal.
        path: PathBuf,
        /// Rendered `std::io::Error`.
        detail: String,
    },
    /// The journal was written by a different campaign: cell count or
    /// per-cell config digests disagree with the current configuration.
    ManifestMismatch {
        /// Cells the journal's manifest pins.
        journal_cells: usize,
        /// Cells the current campaign has.
        campaign_cells: usize,
    },
    /// The journal's first line is not a valid manifest, or a record in
    /// the *middle* of the file failed to parse (a torn trailing line is
    /// tolerated and simply reruns its cell).
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, detail } => {
                write!(f, "journal {}: {detail}", path.display())
            }
            JournalError::ManifestMismatch {
                journal_cells,
                campaign_cells,
            } => write!(
                f,
                "journal belongs to a different campaign: it pins {journal_cells} cell \
                 digest(s), the current campaign has {campaign_cells} (same grid, same \
                 order, same configs required to resume)"
            ),
            JournalError::Corrupt { line, detail } => {
                write!(f, "journal line {line} is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// One journal line, externally tagged.
// Records are transient carriers (parsed or serialized, then dropped), so
// the Cell variant's inline `ExperimentResult` never sits in bulk storage;
// boxing it would need `Box` impls the vendored serde subset doesn't have.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
enum JournalRecord {
    /// First line: which campaign this journal belongs to.
    Manifest {
        /// Format version.
        version: u32,
        /// Number of cells in the campaign.
        cells: usize,
        /// Per-cell [`config_digest`]s, in input order.
        digests: Vec<u64>,
    },
    /// One completed cell.
    Cell {
        /// Cell index in the campaign's input order.
        index: usize,
        /// Digest of the cell's config (rechecked against the manifest).
        digest: u64,
        /// Attempts the cell took to succeed (1 = first try).
        attempts: usize,
        /// The cell's result.
        result: ExperimentResult,
    },
}

/// A successfully restored cell.
#[derive(Debug)]
pub(crate) struct RestoredCell {
    /// Attempts recorded for the cell when it originally completed.
    #[allow(dead_code)]
    pub attempts: usize,
    /// The restored result.
    pub result: ExperimentResult,
}

/// An open, append-ready checkpoint journal (see the module docs).
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    writer: Mutex<File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for a campaign whose
    /// cells digest to `digests`, returning the journal and any restored
    /// results (indexed by cell; `None` = not yet completed).
    ///
    /// A fresh or empty file gets a manifest line; an existing file must
    /// carry a matching manifest. A torn trailing line is tolerated.
    pub fn open(
        path: &Path,
        digests: &[u64],
    ) -> Result<(Self, Vec<Option<RestoredCell>>), JournalError> {
        let io_err = |e: std::io::Error| JournalError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        let mut restored: Vec<Option<RestoredCell>> = Vec::new();
        restored.resize_with(digests.len(), || None);

        let existing_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if existing_len > 0 {
            let reader = BufReader::new(File::open(path).map_err(io_err)?);
            let mut lines = reader.lines().enumerate().peekable();
            let (_, first) = lines.next().ok_or_else(|| JournalError::Corrupt {
                line: 1,
                detail: "journal is non-empty but has no first line".into(),
            })?;
            let first = first.map_err(io_err)?;
            match serde_json::from_str::<JournalRecord>(&first) {
                Ok(JournalRecord::Manifest {
                    version,
                    cells,
                    digests: journal_digests,
                }) => {
                    if version != JOURNAL_VERSION {
                        return Err(JournalError::Corrupt {
                            line: 1,
                            detail: format!(
                                "unsupported journal version {version} (expected {JOURNAL_VERSION})"
                            ),
                        });
                    }
                    if cells != digests.len()
                        || journal_digests.len() != digests.len()
                        || journal_digests != digests
                    {
                        return Err(JournalError::ManifestMismatch {
                            journal_cells: cells.max(journal_digests.len()),
                            campaign_cells: digests.len(),
                        });
                    }
                }
                Ok(_) => {
                    return Err(JournalError::Corrupt {
                        line: 1,
                        detail: "first record is not a manifest".into(),
                    })
                }
                Err(e) => {
                    return Err(JournalError::Corrupt {
                        line: 1,
                        detail: format!("manifest does not parse: {e}"),
                    })
                }
            }
            while let Some((idx, line)) = lines.next() {
                let line = line.map_err(io_err)?;
                let is_last = lines.peek().is_none();
                match serde_json::from_str::<JournalRecord>(&line) {
                    Ok(JournalRecord::Cell {
                        index,
                        digest,
                        attempts,
                        result,
                    }) => {
                        if index >= digests.len() || digest != digests[index] {
                            return Err(JournalError::Corrupt {
                                line: idx + 1,
                                detail: format!("cell {index} digest does not match the manifest"),
                            });
                        }
                        restored[index] = Some(RestoredCell { attempts, result });
                    }
                    Ok(JournalRecord::Manifest { .. }) => {
                        return Err(JournalError::Corrupt {
                            line: idx + 1,
                            detail: "unexpected second manifest".into(),
                        })
                    }
                    // A torn trailing line is the expected signature of a
                    // crash mid-append: drop it (the cell reruns). Anywhere
                    // else it means outside interference.
                    Err(e) if is_last => {
                        let _ = e;
                    }
                    Err(e) => {
                        return Err(JournalError::Corrupt {
                            line: idx + 1,
                            detail: format!("record does not parse: {e}"),
                        })
                    }
                }
            }
        }

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        if existing_len == 0 {
            let manifest = JournalRecord::Manifest {
                version: JOURNAL_VERSION,
                cells: digests.len(),
                digests: digests.to_vec(),
            };
            append_record(&mut file, &manifest).map_err(io_err)?;
        }
        Ok((
            Self {
                path: path.to_path_buf(),
                writer: Mutex::new(file),
            },
            restored,
        ))
    }

    /// Appends one completed cell. Write + flush + `sync_data` under a
    /// poison-recovering lock: a concurrent cell's panic can never wedge
    /// the journal, and a crash loses at most this one record.
    pub fn record(
        &self,
        index: usize,
        digest: u64,
        attempts: usize,
        result: &ExperimentResult,
    ) -> Result<(), JournalError> {
        let record = JournalRecord::Cell {
            index,
            digest,
            attempts,
            result: result.clone(),
        };
        let mut file = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        append_record(&mut file, &record).map_err(|e| JournalError::Io {
            path: self.path.clone(),
            detail: e.to_string(),
        })
    }
}

/// One record as one line, flushed and synced before returning.
fn append_record(file: &mut File, record: &JournalRecord) -> std::io::Result<()> {
    // lint:allow(no_panic, "vendored serializer is infallible on derive-serialized structs (no foreign maps or Display impls)")
    let mut line = serde_json::to_string(record).expect("journal record serializes");
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()?;
    file.sync_data()
}

/// Stable digest of one experiment configuration: FNV-1a over its
/// canonical JSON rendering (the vendored serializer emits struct fields
/// in declaration order, so equal configs always digest equally).
///
/// The digest keys checkpoint-journal records to the exact config that
/// produced them; see the module docs.
pub fn config_digest(cfg: &ExperimentConfig) -> u64 {
    // lint:allow(no_panic, "vendored serializer is infallible on derive-serialized structs (no foreign maps or Display impls)")
    let json = serde_json::to_string(cfg).expect("config serializes");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{cifar_config, Scale};

    fn tiny_result(name: &str) -> ExperimentResult {
        let mut cfg = cifar_config(Scale::Quick, 3);
        cfg.name = name.into();
        cfg.nodes = 4;
        cfg.rounds = 2;
        cfg.eval_max_samples = 40;
        cfg.data = crate::experiment::DataSpec::CifarLike {
            feature_dim: 6,
            samples_per_node: 20,
            test_samples: 60,
            shards_per_node: 2,
            separation: 1.2,
            noise: 0.8,
            modes_per_class: 1,
        };
        cfg.hidden_dim = 6;
        cfg.local_steps = 1;
        cfg.topology = crate::experiment::TopologySpec::Regular { degree: 2 };
        crate::Experiment::from_config(cfg).unwrap().run().unwrap()
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "skiptrain-journal-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn digest_is_stable_and_config_sensitive() {
        let a = cifar_config(Scale::Quick, 1);
        let mut b = cifar_config(Scale::Quick, 1);
        assert_eq!(config_digest(&a), config_digest(&a));
        assert_eq!(config_digest(&a), config_digest(&b));
        b.rounds += 1;
        assert_ne!(config_digest(&a), config_digest(&b));
        let mut c = cifar_config(Scale::Quick, 1);
        c.seed ^= 1;
        assert_ne!(config_digest(&a), config_digest(&c));
    }

    #[test]
    fn journal_round_trips_cells() {
        let path = tmp_path("roundtrip");
        let digests = vec![11, 22, 33];
        let result = tiny_result("cell-1");
        {
            let (journal, restored) = Journal::open(&path, &digests).unwrap();
            assert!(restored.iter().all(Option::is_none));
            journal.record(1, 22, 2, &result).unwrap();
        }
        let (_, restored) = Journal::open(&path, &digests).unwrap();
        assert!(restored[0].is_none() && restored[2].is_none());
        let cell = restored[1].as_ref().unwrap();
        assert_eq!(cell.attempts, 2);
        assert_eq!(cell.result.name, "cell-1");
        assert_eq!(
            cell.result.final_test.mean_accuracy.to_bits(),
            result.final_test.mean_accuracy.to_bits()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_manifest_is_rejected() {
        let path = tmp_path("mismatch");
        {
            let _ = Journal::open(&path, &[1, 2]).unwrap();
        }
        let err = Journal::open(&path, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, JournalError::ManifestMismatch { .. }));
        // Same cell count, different digest: also a mismatch.
        let err = Journal::open(&path, &[1, 9]).unwrap_err();
        assert!(matches!(err, JournalError::ManifestMismatch { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_tolerated_but_midfile_corruption_is_not() {
        let path = tmp_path("torn");
        let digests = vec![7, 8];
        let result = tiny_result("torn-cell");
        {
            let (journal, _) = Journal::open(&path, &digests).unwrap();
            journal.record(0, 7, 1, &result).unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"Cell\":{\"index\":1,\"dig");
        std::fs::write(&path, &raw).unwrap();
        let (_, restored) = Journal::open(&path, &digests).unwrap();
        assert!(restored[0].is_some(), "intact cell must survive the tear");
        assert!(restored[1].is_none(), "torn cell must rerun");

        // The same garbage in the middle of the file is interference.
        let torn = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = torn.lines().collect();
        lines.insert(1, "{\"Cell\":{\"index\":1,\"dig");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = Journal::open(&path, &digests).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 2, .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cell_digest_must_match_manifest_slot() {
        let path = tmp_path("celldigest");
        {
            let (journal, _) = Journal::open(&path, &[5, 6]).unwrap();
            journal.record(0, 5, 1, &tiny_result("ok")).unwrap();
        }
        // Hand-corrupt the recorded digest, then pad the file so the bad
        // record is not the tolerated trailing line.
        let raw = std::fs::read_to_string(&path).unwrap();
        let patched = raw.replace("\"digest\":5", "\"digest\":99");
        std::fs::write(&path, patched + "\n").unwrap();
        let err = Journal::open(&path, &[5, 6]).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }));
        let _ = std::fs::remove_file(&path);
    }
}
