//! The sweep journal: an append-only per-job completion log that makes
//! interrupted scenario sweeps resumable.
//!
//! A frontier-scale matrix is a long-lived job; a crash (or an injected
//! fail point) must not vaporise hours of finished scenarios. As a
//! journaled sweep progresses, every completed job appends one fixed-size
//! entry — job index, fixed-size [`MeasuredRun`] record, FNV-64 checksum —
//! to the journal file. Resume replays the journal, verifies that its
//! header matches the matrix being run (fingerprint and job count), skips
//! every journaled job, and re-runs only the rest. The header's
//! fingerprint is [`ScenarioMatrix::fingerprint`]: a hash of every job's
//! [`JobKey`], which covers everything a job's result is computed from
//! (the applied system configuration, the workload profile, the design,
//! the run lengths, the seed and the model version). A journal is
//! therefore replayed only into the same jobs under the same model, and
//! the resumed sweep is *bit-identical* to an uninterrupted one — the
//! chaos differential suite pins this down to the warehouse byte level.
//! A journal written by other jobs, or under another `MODEL_VERSION`, is
//! refused by fingerprint.
//!
//! [`ScenarioMatrix::fingerprint`]: crate::ScenarioMatrix::fingerprint
//! [`JobKey`]: crate::JobKey
//!
//! # File format (version 2)
//!
//! ```text
//! header:  magic "RNUCAJL\0" (8) | version u32 | fingerprint u64 | jobs u64
//! entry:   job u64 | kind u8 | len u32 | payload (len bytes)
//!          | fnv64(job|kind|len|payload)
//! ```
//!
//! All integers little-endian. `kind` is 0 for a completed run or 1 for a
//! *quarantined failure*. A run's `payload` is [`MeasuredRun::to_bytes`],
//! 136 bytes of seventeen 8-byte fields (`f64`s as their bit patterns):
//!
//! ```text
//! run:     busy | l1_to_l1 | l2 | off_chip | other | reclassification
//!          | l2_private_data | l2_instructions | l2_shared_load
//!          | l2_shared_coherence | off_chip_instructions
//!          | accesses u64 | instructions | off_chip_rate | l1_to_l1_rate
//!          | misclassification_rate | reclassifications u64
//! failure: attempts u32 | cause u8 | msg_len u32 | msg (msg_len bytes)
//! ```
//!
//! A failure is a typed record written when supervision gives up on a
//! job, so a resumed sweep skips the poisoned job instead of re-crashing
//! on it. Every field is read through the checked [`ByteReader`], so a
//! damaged file is a typed error, never a panic. A crash
//! mid-append leaves a torn final entry; replay detects it by length or
//! checksum, drops it, and resume truncates the file back to the last
//! intact entry before appending. Entries appear in completion order
//! (worker-timing dependent), not job order — replay is order-insensitive
//! because every entry names its job.
//!
//! Version 1 files (no `kind` byte) are refused by version, not guessed
//! at: the matrix fingerprint mixes `JOURNAL_VERSION` in, so a stale
//! journal fails the version check with a clear message.

use crate::engine::FailureCause;
use crate::simulator::MeasuredRun;
use rnuca_types::failpoint;
use rnuca_types::{ByteReader, DecodeError, Fnv64};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The journal file's magic bytes.
pub const JOURNAL_MAGIC: &[u8; 8] = b"RNUCAJL\0";

/// Version of the journal format (bumped on any layout change; resume
/// refuses other versions rather than guessing).
pub const JOURNAL_VERSION: u32 = 2;

/// Header size in bytes: magic + version + fingerprint + job count.
const HEADER_LEN: u64 = 8 + 4 + 8 + 8;

/// Entry kind byte: a completed [`MeasuredRun`].
const ENTRY_RUN: u8 = 0;

/// Entry kind byte: a quarantined [`JournalFailure`].
const ENTRY_FAILED: u8 = 1;

/// Bytes before the payload in every entry: job + kind + len.
const ENTRY_PRELUDE: usize = 8 + 1 + 4;

/// Upper bound on a failure entry's payload. A panic message is a line or
/// two; anything bigger means the `len` field is damaged, and believing it
/// would allocate unbounded memory from a corrupt byte.
const MAX_FAILURE_PAYLOAD: usize = 64 * 1024;

/// A typed quarantined-failure record: what the journal remembers about a
/// job whose supervision gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalFailure {
    /// Attempts made before the job was quarantined.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailureCause,
    /// The final failure's message.
    pub message: String,
}

impl JournalFailure {
    /// Payload encoding: attempts u32 | cause u8 | msg_len u32 | msg bytes.
    fn encode_payload(&self) -> Vec<u8> {
        let msg = self.message.as_bytes();
        let cause: u8 = match self.cause {
            FailureCause::Panic => 0,
            FailureCause::Deadline => 1,
        };
        let mut out = Vec::with_capacity(9 + msg.len());
        out.extend_from_slice(&self.attempts.to_le_bytes());
        out.push(cause);
        out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        out.extend_from_slice(msg);
        out
    }

    /// Decodes a payload previously written by [`Self::encode_payload`].
    /// Panic-free: the payload passed its entry checksum, so any internal
    /// inconsistency is writer/reader disagreement reported as `Err`, with
    /// offsets relative to the payload.
    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let attempts = r.u32("failure attempt count")?;
        let cause = match r.u8("failure cause")? {
            0 => FailureCause::Panic,
            1 => FailureCause::Deadline,
            b => {
                return Err(DecodeError {
                    offset: r.pos() - 1,
                    message: format!("unknown failure cause byte {b}"),
                })
            }
        };
        let msg_len = r.u32("failure message length")? as usize;
        if msg_len != r.remaining() {
            return Err(DecodeError {
                offset: r.pos() - 4,
                message: format!(
                    "failure message length {msg_len} disagrees with the payload ({} bytes left)",
                    r.remaining()
                ),
            });
        }
        let message = String::from_utf8_lossy(r.take(msg_len, "failure message")?).into_owned();
        Ok(JournalFailure {
            attempts,
            cause,
            message,
        })
    }
}

/// One intact journal entry, as replay returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The job completed; its measured result.
    Run(MeasuredRun),
    /// The job was quarantined; the typed failure record.
    Failed(JournalFailure),
}

/// Why a journal could not be loaded or matched to a matrix.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not a journal, or its header is damaged beyond the
    /// tolerated torn tail. `offset` is where decoding stopped making
    /// sense.
    Corrupt {
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong there.
        message: String,
    },
    /// The journal was written by a different matrix: resuming would mix
    /// results from incompatible sweeps.
    FingerprintMismatch {
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the matrix being resumed.
        expected: u64,
    },
    /// The journal's job count differs from the matrix's flattened job
    /// list (same guard as the fingerprint, but with a clearer message
    /// when only an axis changed).
    JobCountMismatch {
        /// Job count recorded in the journal header.
        found: u64,
        /// Job count of the matrix being resumed.
        expected: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { offset, message } => {
                write!(f, "corrupt journal at byte {offset}: {message}")
            }
            JournalError::FingerprintMismatch { found, expected } => write!(
                f,
                "journal fingerprint {found:#018x} does not match this matrix \
                 ({expected:#018x}): it records a different sweep"
            ),
            JournalError::JobCountMismatch { found, expected } => write!(
                f,
                "journal records {found} jobs but this matrix flattens to \
                 {expected}: an axis changed since the journal was written"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<DecodeError> for JournalError {
    fn from(e: DecodeError) -> Self {
        JournalError::Corrupt {
            offset: e.offset as u64,
            message: e.message,
        }
    }
}

/// Locks ignoring poison: an injected panic inside [`SweepJournal::append`]
/// must not wedge the remaining workers on a poisoned file lock — the
/// interesting failure is the panic itself.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The append side of a sweep journal.
///
/// Shared by every engine worker (appends serialize on an internal lock);
/// each append is flushed immediately so a crash loses at most the entry
/// being written — which replay then drops as a torn tail.
#[derive(Debug)]
pub struct SweepJournal {
    file: Mutex<File>,
}

impl SweepJournal {
    /// Creates (truncating) a journal for a matrix with `jobs` flattened
    /// jobs and the given fingerprint.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn create(path: &Path, fingerprint: u64, jobs: u64) -> std::io::Result<Self> {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&fingerprint.to_le_bytes());
        header.extend_from_slice(&jobs.to_le_bytes());
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        file.flush()?;
        Ok(SweepJournal {
            file: Mutex::new(file),
        })
    }

    /// Reopens a journal for appending after [`JournalReplay::load`],
    /// truncating any torn tail the replay detected.
    ///
    /// # Errors
    ///
    /// Any error opening or truncating the file.
    pub fn resume(path: &Path, replay: &JournalReplay) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(SweepJournal {
            file: Mutex::new(file),
        })
    }

    /// Appends one completed job's entry and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Any error writing the file (including an injected one from the
    /// `sweep::journal::append` fail-point site).
    ///
    /// # Panics
    ///
    /// Panics when the `sweep::journal::append` fail point fires with a
    /// panic action (simulating a process killed at a job boundary, before
    /// the entry lands), or when `sweep::journal::torn` fires (simulating a
    /// crash mid-write: half the entry is written, then the panic).
    pub fn append(&self, job: usize, run: &MeasuredRun) -> std::io::Result<()> {
        self.append_entry(job, ENTRY_RUN, &run.to_bytes())
    }

    /// Appends one quarantined job's typed failure entry and flushes it —
    /// the journal-side record that lets `--resume` *skip* a poisoned job
    /// instead of re-crashing on it.
    ///
    /// # Errors
    ///
    /// Any error writing the file (including an injected one from the
    /// `sweep::journal::append` fail-point site).
    ///
    /// # Panics
    ///
    /// Same injected fail points as [`SweepJournal::append`].
    pub fn append_failure(&self, job: usize, failure: &JournalFailure) -> std::io::Result<()> {
        self.append_entry(job, ENTRY_FAILED, &failure.encode_payload())
    }

    /// The shared append path: frame, checksum, fail points, write, flush.
    fn append_entry(&self, job: usize, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        let mut entry = Vec::with_capacity(ENTRY_PRELUDE + payload.len() + 8);
        entry.extend_from_slice(&(job as u64).to_le_bytes());
        entry.push(kind);
        entry.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        entry.extend_from_slice(payload);
        let mut h = Fnv64::new();
        h.write(&entry);
        entry.extend_from_slice(&h.finish().to_le_bytes());

        let mut file = lock(&self.file);
        failpoint::io_point("sweep::journal::append")?;
        if failpoint::triggered("sweep::journal::torn") {
            let half = entry.len() / 2;
            file.write_all(&entry[..half])?;
            file.flush()?;
            panic!("fail point `sweep::journal::torn` triggered (injected)");
        }
        file.write_all(&entry)?;
        file.flush()
    }
}

/// The replay side: a journal's header and every intact entry.
#[derive(Debug)]
pub struct JournalReplay {
    /// Matrix fingerprint recorded in the header.
    pub fingerprint: u64,
    /// Flattened job count recorded in the header. The header carries no
    /// checksum, so this is only a claim until a caller matches it
    /// against its own matrix.
    pub jobs: u64,
    /// Every intact entry, keyed by job (completed or quarantined; a later
    /// entry for a job replaces an earlier one). Jobs the interrupted
    /// sweep never finished have no key. Only entries actually in the
    /// file are held, so a damaged job count allocates nothing.
    pub entries: BTreeMap<u64, JournalEntry>,
    /// Whether a torn final entry was detected (and will be truncated away
    /// by [`SweepJournal::resume`]).
    pub torn_tail: bool,
    /// File length up to and including the last intact entry.
    pub valid_len: u64,
}

impl JournalReplay {
    /// Loads and verifies a journal file.
    ///
    /// Header damage is an error; a torn *final* entry (the expected
    /// residue of a crash mid-append) is tolerated — it is dropped,
    /// recorded in [`Self::torn_tail`], and truncated away on resume.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be read;
    /// [`JournalError::Corrupt`] when the header or an entry (other than a
    /// torn tail) is damaged.
    pub fn load(path: &Path) -> Result<Self, JournalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// [`Self::load`] after the read: decodes a whole journal file.
    fn decode(bytes: &[u8]) -> Result<Self, JournalError> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(JournalError::Corrupt {
                offset: bytes.len() as u64,
                message: format!(
                    "journal header truncated ({} of {HEADER_LEN} bytes)",
                    bytes.len()
                ),
            });
        }
        let mut r = ByteReader::new(bytes);
        if r.take(JOURNAL_MAGIC.len(), "journal magic")? != JOURNAL_MAGIC {
            return Err(JournalError::Corrupt {
                offset: 0,
                message: "not a sweep journal (bad magic)".to_string(),
            });
        }
        let version = r.u32("journal version")?;
        if version != JOURNAL_VERSION {
            return Err(JournalError::Corrupt {
                offset: 8,
                message: format!(
                    "journal version {version} is not the supported {JOURNAL_VERSION}"
                ),
            });
        }
        let fingerprint = r.u64("matrix fingerprint")?;
        let jobs = r.u64("job count")?;

        let mut entries = BTreeMap::new();
        let mut valid_len = r.pos();
        let mut torn_tail = false;
        while r.remaining() > 0 {
            let pos = r.pos();
            if r.remaining() < ENTRY_PRELUDE {
                torn_tail = true;
                break;
            }
            let job = r.u64("entry job")?;
            let kind = r.u8("entry kind")?;
            let len = r.u32("entry payload length")? as usize;
            // Sanity-check the length *before* trusting it: a run payload
            // has exactly one size, and a failure payload is bounded. A
            // wrong length with all its bytes present cannot be a torn
            // tail — it means the writer and reader disagree on the shape.
            // (Truncation alone can never manufacture a bad length: the
            // prelude bytes are intact prefix bytes.)
            match kind {
                ENTRY_RUN if len == MeasuredRun::ENCODED_LEN => {}
                ENTRY_RUN => {
                    return Err(JournalError::Corrupt {
                        offset: (pos + 9) as u64,
                        message: format!(
                            "run entry payload length {len} is not the expected {}",
                            MeasuredRun::ENCODED_LEN
                        ),
                    });
                }
                ENTRY_FAILED if len <= MAX_FAILURE_PAYLOAD => {}
                ENTRY_FAILED => {
                    return Err(JournalError::Corrupt {
                        offset: (pos + 9) as u64,
                        message: format!(
                            "failure entry payload length {len} exceeds the \
                             {MAX_FAILURE_PAYLOAD}-byte cap"
                        ),
                    });
                }
                other => {
                    return Err(JournalError::Corrupt {
                        offset: (pos + 8) as u64,
                        message: format!("unknown entry kind {other}"),
                    });
                }
            }
            if r.remaining() < len + 8 {
                torn_tail = true;
                break;
            }
            let payload = r.take(len, "entry payload")?;
            let stored = r.u64("entry checksum")?;
            let mut h = Fnv64::new();
            h.write(&bytes[pos..pos + ENTRY_PRELUDE + len]);
            if stored != h.finish() {
                // Checksum damage: tolerated as a torn tail (a crash
                // mid-append is the expected cause). Everything after is
                // dropped too — resume re-runs those jobs, and determinism
                // reproduces their results exactly.
                torn_tail = true;
                break;
            }
            if job >= jobs {
                return Err(JournalError::Corrupt {
                    offset: pos as u64,
                    message: format!("entry names job {job} of a {jobs}-job sweep"),
                });
            }
            let in_payload = |e: DecodeError| JournalError::Corrupt {
                offset: (pos + ENTRY_PRELUDE + e.offset) as u64,
                message: e.message,
            };
            let entry = match kind {
                ENTRY_RUN => {
                    JournalEntry::Run(MeasuredRun::from_bytes(payload).map_err(in_payload)?)
                }
                _ => JournalEntry::Failed(
                    JournalFailure::decode_payload(payload).map_err(in_payload)?,
                ),
            };
            entries.insert(job, entry);
            valid_len = r.pos();
        }
        Ok(JournalReplay {
            fingerprint,
            jobs,
            entries,
            torn_tail,
            valid_len: valid_len as u64,
        })
    }

    /// Journaled (intact) entries, completed and quarantined alike.
    pub fn completed(&self) -> usize {
        self.entries.len()
    }

    /// Journaled quarantined failures.
    pub fn failed(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e, JournalEntry::Failed(_)))
            .count()
    }

    /// The journaled run for `job`, if it completed successfully.
    pub fn run(&self, job: usize) -> Option<&MeasuredRun> {
        match self.entries.get(&(job as u64))? {
            JournalEntry::Run(run) => Some(run),
            JournalEntry::Failed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpi::DetailedCpi;
    use proptest::prelude::*;

    fn sample_run(x: f64) -> MeasuredRun {
        MeasuredRun {
            cpi: DetailedCpi {
                l2_private_data: x,
                ..DetailedCpi::default()
            },
            accesses: 1000 + x as u64,
            instructions: 5e5,
            off_chip_rate: 0.25,
            l1_to_l1_rate: 0.01,
            misclassification_rate: 0.0,
            reclassifications: 3,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rnuca-journal-{}-{name}", std::process::id()))
    }

    /// The bytes of a 6-job journal holding jobs 0 (run), 1 (quarantined)
    /// and 2 (run), and those three entries in job order.
    fn three_entry_journal(name: &str) -> (Vec<u8>, [JournalEntry; 3]) {
        let failure = JournalFailure {
            attempts: 2,
            cause: FailureCause::Panic,
            message: "poisoned".to_string(),
        };
        let path = temp_path(name);
        let journal = SweepJournal::create(&path, 0xBEEF, 6).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal.append_failure(1, &failure).unwrap();
        journal.append(2, &sample_run(2.0)).unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let entries = [
            JournalEntry::Run(sample_run(0.0)),
            JournalEntry::Failed(failure),
            JournalEntry::Run(sample_run(2.0)),
        ];
        (bytes, entries)
    }

    /// Writes `bytes` to `path` and loads it, failing the test (rather
    /// than unwinding through it) if the load panics.
    fn load_without_panic(
        path: &Path,
        bytes: &[u8],
        case: &str,
    ) -> Result<JournalReplay, JournalError> {
        std::fs::write(path, bytes).unwrap();
        std::panic::catch_unwind(|| JournalReplay::load(path))
            .unwrap_or_else(|_| panic!("replay panicked on {case}"))
    }

    #[test]
    fn measured_run_snap_roundtrips() {
        let run = sample_run(1.5);
        let bytes = run.to_bytes();
        assert_eq!(MeasuredRun::from_bytes(&bytes).unwrap(), run);
        for cut in 0..bytes.len() {
            let err = MeasuredRun::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.offset, cut / 8 * 8, "prefix of {cut} bytes");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(
            MeasuredRun::from_bytes(&long).unwrap_err().offset,
            MeasuredRun::ENCODED_LEN
        );
    }

    #[test]
    fn measured_run_payload_bytes_are_pinned() {
        // The FNV-64 of the payload as the previous (trait-based) codec
        // wrote it: journals written before the codec was replaced must
        // replay unchanged.
        let mut h = Fnv64::new();
        h.write(&sample_run(1.5).to_bytes());
        assert_eq!(h.finish(), 0x6480_5695_e757_c951);
    }

    #[test]
    fn journal_roundtrips_and_is_order_insensitive() {
        let path = temp_path("roundtrip");
        let journal = SweepJournal::create(&path, 0xFEED, 5).unwrap();
        // Completion order 3, 0, 4 — job order must come back regardless.
        journal.append(3, &sample_run(3.0)).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal.append(4, &sample_run(4.0)).unwrap();
        drop(journal);

        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.fingerprint, 0xFEED);
        assert_eq!(replay.jobs, 5);
        assert_eq!(replay.completed(), 3);
        assert!(!replay.torn_tail);
        assert_eq!(replay.run(0), Some(&sample_run(0.0)));
        assert_eq!(replay.entries.get(&1), None);
        assert_eq!(replay.run(3), Some(&sample_run(3.0)));
        assert_eq!(replay.run(4), Some(&sample_run(4.0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_entries_roundtrip_with_their_cause() {
        let path = temp_path("failure");
        let journal = SweepJournal::create(&path, 0xF00D, 4).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal
            .append_failure(
                1,
                &JournalFailure {
                    attempts: 3,
                    cause: FailureCause::Panic,
                    message: "member OLTP DB2 exploded".to_string(),
                },
            )
            .unwrap();
        journal
            .append_failure(
                2,
                &JournalFailure {
                    attempts: 1,
                    cause: FailureCause::Deadline,
                    message: String::new(),
                },
            )
            .unwrap();
        drop(journal);

        let replay = JournalReplay::load(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.completed(), 3);
        assert_eq!(replay.failed(), 2);
        assert_eq!(replay.run(0), Some(&sample_run(0.0)));
        assert_eq!(replay.run(1), None, "a failed job has no run");
        match replay.entries.get(&1) {
            Some(JournalEntry::Failed(f)) => {
                assert_eq!(f.attempts, 3);
                assert_eq!(f.cause, FailureCause::Panic);
                assert_eq!(f.message, "member OLTP DB2 exploded");
            }
            other => panic!("want Failed, got {other:?}"),
        }
        match replay.entries.get(&2) {
            Some(JournalEntry::Failed(f)) => {
                assert_eq!(f.cause, FailureCause::Deadline);
                assert_eq!(f.message, "");
            }
            other => panic!("want Failed, got {other:?}"),
        }
        assert_eq!(replay.entries.get(&3), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_offset_replays_a_prefix_or_rejects_cleanly() {
        // The torn-tail property, exhaustively: whatever byte a crash cuts
        // the file at, resume must either replay an intact prefix of the
        // journaled entries or reject with a typed error — never panic,
        // never fabricate an entry that was not fully written.
        let (full, expected) = three_entry_journal("every-offset");
        let trunc_path = temp_path("every-offset-trunc");
        for cut in 0..=full.len() {
            let result = load_without_panic(&trunc_path, &full[..cut], &format!("cut at {cut}"));
            match result {
                Ok(replay) => {
                    assert!(
                        cut >= HEADER_LEN as usize,
                        "a cut inside the header (byte {cut}) must be rejected"
                    );
                    // Every surviving entry must be one the full journal
                    // wrote, and they must form a prefix in file order:
                    // entry k survives only if its whole frame fits.
                    for (&job, e) in &replay.entries {
                        match expected.get(job as usize) {
                            Some(want) => assert_eq!(
                                e, want,
                                "cut at byte {cut} fabricated a different entry for job {job}"
                            ),
                            None => panic!("cut at byte {cut} fabricated job {job}: {e:?}"),
                        }
                    }
                    let survived = replay.completed();
                    assert!(
                        (replay.valid_len as usize) <= cut,
                        "valid_len must not pass the cut"
                    );
                    assert_eq!(
                        replay.torn_tail,
                        (replay.valid_len as usize) < cut,
                        "bytes past the last intact entry must be flagged torn (cut {cut})"
                    );
                    // Prefix property: entries survive strictly in file
                    // order 0, 1, 2 — a later entry never outlives an
                    // earlier one under pure truncation.
                    for job in 0..survived {
                        assert!(
                            replay.entries.contains_key(&(job as u64)),
                            "cut at byte {cut}: entry {job} missing from a {survived}-entry prefix"
                        );
                    }
                }
                Err(JournalError::Corrupt { .. }) => {
                    assert!(
                        cut < HEADER_LEN as usize,
                        "an intact header with truncated entries (cut {cut}) must replay, \
                         not reject"
                    );
                }
                Err(other) => panic!("cut at byte {cut}: unexpected error {other}"),
            }
        }
        std::fs::remove_file(&trunc_path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_resume_truncates_it() {
        let path = temp_path("torn");
        let journal = SweepJournal::create(&path, 7, 4).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        journal.append(1, &sample_run(1.0)).unwrap();
        drop(journal);
        let intact_len = std::fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: half of job 2's entry.
        let entry = 2u64.to_le_bytes();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&entry).unwrap();
        drop(file);

        let replay = JournalReplay::load(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.completed(), 2);
        assert_eq!(replay.valid_len, intact_len);

        // Resume truncates the torn tail and appends cleanly after it.
        let journal = SweepJournal::resume(&path, &replay).unwrap();
        journal.append(2, &sample_run(2.0)).unwrap();
        drop(journal);
        let replay = JournalReplay::load(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.completed(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_damage_is_detected_as_a_torn_tail() {
        let path = temp_path("checksum");
        let journal = SweepJournal::create(&path, 7, 2).unwrap();
        journal.append(0, &sample_run(0.0)).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let replay = JournalReplay::load(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.completed(), 0);
        assert_eq!(replay.valid_len, HEADER_LEN);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_damage_is_an_error_with_an_offset() {
        let path = temp_path("header");

        std::fs::write(&path, b"short").unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, 5);
                assert!(message.contains("truncated"));
            }
            other => panic!("want Corrupt, got {other}"),
        }

        std::fs::write(&path, vec![0u8; HEADER_LEN as usize]).unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, .. } => assert_eq!(offset, 0),
            other => panic!("want Corrupt, got {other}"),
        }

        let mut header = Vec::new();
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&99u32.to_le_bytes());
        header.extend_from_slice(&[0; 16]);
        std::fs::write(&path, &header).unwrap();
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, 8);
                assert!(message.contains("version 99"));
            }
            other => panic!("want Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_job_index_is_corrupt() {
        let path = temp_path("range");
        let journal = SweepJournal::create(&path, 7, 2).unwrap();
        journal.append(9, &sample_run(0.0)).unwrap();
        drop(journal);
        match JournalReplay::load(&path).unwrap_err() {
            JournalError::Corrupt { offset, message } => {
                assert_eq!(offset, HEADER_LEN);
                assert!(message.contains("job 9"));
            }
            other => panic!("want Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_header_claiming_u64_max_jobs_loads_without_allocating() {
        let path = temp_path("max-jobs");
        let mut header = Vec::new();
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        let replay = load_without_panic(&path, &header, "a u64::MAX job count").unwrap();
        assert_eq!(replay.jobs, u64::MAX);
        assert_eq!(replay.completed(), 0);
        assert_eq!(replay.valid_len, HEADER_LEN);
        std::fs::remove_file(&path).unwrap();
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_after_the_header_load_or_reject_cleanly(
            tail in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // Fingerprint, job count and entries are all arbitrary: only
            // the magic and version are fixed, so every later field is
            // decoded from untrusted bytes.
            let path = temp_path("arbitrary-tail");
            let mut bytes = JOURNAL_MAGIC.to_vec();
            bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            bytes.extend_from_slice(&tail);
            match load_without_panic(&path, &bytes, &format!("tail {tail:?}")) {
                Ok(replay) => {
                    prop_assert!(replay.valid_len as usize <= bytes.len());
                    prop_assert!(replay.entries.keys().all(|&job| job < replay.jobs));
                }
                Err(JournalError::Corrupt { offset, .. }) => {
                    prop_assert!(offset as usize <= bytes.len());
                }
                Err(other) => panic!("untyped failure {other} for tail {tail:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn every_single_byte_overwrite_loads_or_rejects_cleanly() {
        // The header carries no checksum, so a flipped job count or
        // version byte reaches the decoder unfiltered; entry damage must
        // be caught by the entry checksum. Either way: a typed error or a
        // replay holding only entries the journal really wrote.
        let (full, expected) = three_entry_journal("overwrite");
        for at in 0..full.len() {
            for value in 0..=u8::MAX {
                if value == full[at] {
                    continue;
                }
                let mut bytes = full.clone();
                bytes[at] = value;
                let case = || format!("byte {at} set to {value:#04x}");
                // In memory: the file round trip is what the other tests
                // cover, and ~100k of them would dominate the suite.
                let result = std::panic::catch_unwind(|| JournalReplay::decode(&bytes))
                    .unwrap_or_else(|_| panic!("replay panicked on {}", case()));
                match result {
                    Ok(replay) => {
                        for (&job, e) in &replay.entries {
                            assert_eq!(
                                expected.get(job as usize),
                                Some(e),
                                "{} fabricated an entry for job {job}",
                                case()
                            );
                        }
                    }
                    Err(JournalError::Corrupt { .. }) => {}
                    Err(other) => panic!("{}: unexpected error {other}", case()),
                }
            }
        }
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let err = JournalReplay::load(Path::new("/nonexistent/rnuca.jl")).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }
}
