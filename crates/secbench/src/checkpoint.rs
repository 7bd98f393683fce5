//! Crash-safe campaign checkpoints.
//!
//! A long campaign (tens of thousands of trials) should survive a killed
//! process: the fault-tolerant engine in [`crate::resilience`]
//! periodically serializes every completed shard's result — together with
//! a fingerprint of the campaign's settings and the task count — and a
//! `--resume` run skips the recorded shards. Because every trial's seed
//! is a pure function of its coordinates (see
//! [`crate::run::derive_trial_seed`]), a resumed campaign is bitwise
//! identical to an uninterrupted one.
//!
//! # File format
//!
//! A checkpoint is a short line-oriented text file wrapped in the
//! checksummed [`crate::iofault`] frame and written with a temp-file +
//! atomic-rename + parent-directory fsync, so a kill mid-write can never
//! corrupt an existing checkpoint and the rename itself is durable:
//!
//! ```text
//! secbench-frame v1 123 89abcdef 01234567
//! secbench-checkpoint v1
//! settings 00c0ffee00c0ffee
//! tasks 72
//! elapsed 45000000000
//! done 0 25 3 22
//! done 5 25 24 1
//! ```
//!
//! Saves keep a generation chain: before overwriting, a *valid* current
//! file is rotated to `<path>.prev`, so even a write torn by a crash (or
//! by `--inject-io torn`) leaves the last good generation recoverable.
//! [`Checkpoint::load_recovering`] walks current → previous → fresh and
//! never fails on corruption; because every trial seed is a pure function
//! of its coordinates, resuming from *any* of those three points yields
//! bitwise-identical output. Unframed v1 files from older releases still
//! load.
//!
//! `settings` is the campaign fingerprint ([`settings_fingerprint`]
//! chained with driver-specific coordinates); a mismatch on load is a
//! hard error — resuming a different campaign from a stale file would
//! silently corrupt results. `elapsed` is the campaign wall-clock (in
//! nanoseconds) consumed up to the flush, across every run in the resume
//! chain — it is what keeps `--deadline` honest across `--resume`
//! (files written before this line existed load as zero consumed). Each
//! `done` line is a completed task index followed by its
//! [`Record`]-encoded result.

use std::fs;
use std::path::{Path, PathBuf};

use crate::iofault::{self, IoInjector};
use crate::run::{splitmix64, Measurement, TrialSettings};

/// The version tag in the checkpoint header.
const MAGIC: &str = "secbench-checkpoint v1";

/// A task result that can round-trip through a checkpoint line.
///
/// Encodings must be a single line without newlines and must round-trip
/// **bitwise** (floats are stored as their IEEE-754 bit patterns) — the
/// resume contract promises output identical to an uninterrupted run.
pub trait Record: Sized {
    /// Serializes the result as a single line.
    fn encode(&self) -> String;
    /// Parses a line produced by [`Record::encode`].
    fn decode(line: &str) -> Option<Self>;
}

impl Record for Measurement {
    fn encode(&self) -> String {
        format!(
            "{} {} {}",
            self.trials, self.n_mapped_miss, self.n_not_mapped_miss
        )
    }

    fn decode(line: &str) -> Option<Measurement> {
        let mut parts = line.split_whitespace();
        let trials = parts.next()?.parse().ok()?;
        let n_mapped_miss = parts.next()?.parse().ok()?;
        let n_not_mapped_miss = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Measurement {
            trials,
            n_mapped_miss,
            n_not_mapped_miss,
        })
    }
}

impl Record for u64 {
    fn encode(&self) -> String {
        format!("{self}")
    }

    fn decode(line: &str) -> Option<u64> {
        line.trim().parse().ok()
    }
}

impl Record for f64 {
    fn encode(&self) -> String {
        // Bit-exact: the resume contract is *bitwise* identity, which a
        // decimal round-trip cannot guarantee for every value.
        format!("{:016x}", self.to_bits())
    }

    fn decode(line: &str) -> Option<f64> {
        u64::from_str_radix(line.trim(), 16)
            .ok()
            .map(f64::from_bits)
    }
}

impl Record for (f64, f64) {
    fn encode(&self) -> String {
        format!("{} {}", self.0.encode(), self.1.encode())
    }

    fn decode(line: &str) -> Option<(f64, f64)> {
        let mut parts = line.split_whitespace();
        let a = f64::decode(parts.next()?)?;
        let b = f64::decode(parts.next()?)?;
        if parts.next().is_some() {
            return None;
        }
        Some((a, b))
    }
}

impl Record for (u64, u64) {
    fn encode(&self) -> String {
        format!("{} {}", self.0, self.1)
    }

    fn decode(line: &str) -> Option<(u64, u64)> {
        let mut parts = line.split_whitespace();
        let a = parts.next()?.parse().ok()?;
        let b = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some((a, b))
    }
}

impl Record for (f64, f64, f64) {
    fn encode(&self) -> String {
        format!(
            "{} {} {}",
            self.0.encode(),
            self.1.encode(),
            self.2.encode()
        )
    }

    fn decode(line: &str) -> Option<(f64, f64, f64)> {
        let mut parts = line.split_whitespace();
        let a = f64::decode(parts.next()?)?;
        let b = f64::decode(parts.next()?)?;
        let c = f64::decode(parts.next()?)?;
        if parts.next().is_some() {
            return None;
        }
        Some((a, b, c))
    }
}

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is not a well-formed checkpoint.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The checkpoint was written by a campaign with different settings.
    SettingsMismatch {
        /// The live campaign's fingerprint.
        expected: u64,
        /// The fingerprint recorded in the file.
        found: u64,
    },
    /// The checkpoint records a different number of tasks.
    TaskCountMismatch {
        /// The live campaign's task count.
        expected: usize,
        /// The task count recorded in the file.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint (line {line}): {reason}")
            }
            CheckpointError::SettingsMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign: settings fingerprint \
                 {found:016x} in the file, {expected:016x} for this run"
            ),
            CheckpointError::TaskCountMismatch { expected, found } => write!(
                f,
                "checkpoint records {found} tasks but this campaign has {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// How often and where the engine checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written with temp-file + atomic rename).
    pub path: PathBuf,
    /// Write the file after every `every` newly completed shards (a final
    /// write always happens at run end or interruption).
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing `path` after every 8 completed shards.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            path: path.into(),
            every: 8,
        }
    }
}

/// An in-memory checkpoint: the campaign identity plus every completed
/// task's encoded result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the campaign settings (see [`settings_fingerprint`]
    /// and [`fingerprint`]).
    pub settings_hash: u64,
    /// Total number of tasks in the campaign.
    pub tasks: usize,
    /// Campaign wall-clock consumed up to this flush, summed across every
    /// run in the resume chain. Deducted from `--deadline` on resume.
    pub consumed: std::time::Duration,
    /// Completed tasks: `(task index, encoded result)`, in completion
    /// order.
    pub done: Vec<(usize, String)>,
}

impl Checkpoint {
    /// An empty checkpoint for a campaign of `tasks` tasks.
    pub fn new(settings_hash: u64, tasks: usize) -> Checkpoint {
        Checkpoint {
            settings_hash,
            tasks,
            consumed: std::time::Duration::ZERO,
            done: Vec::new(),
        }
    }

    /// Records one completed task.
    pub fn record(&mut self, index: usize, result: &impl Record) {
        self.done.push((index, result.encode()));
    }

    /// Errors unless the checkpoint matches the live campaign's identity.
    pub fn validate(&self, settings_hash: u64, tasks: usize) -> Result<(), CheckpointError> {
        if self.settings_hash != settings_hash {
            return Err(CheckpointError::SettingsMismatch {
                expected: settings_hash,
                found: self.settings_hash,
            });
        }
        if self.tasks != tasks {
            return Err(CheckpointError::TaskCountMismatch {
                expected: tasks,
                found: self.tasks,
            });
        }
        Ok(())
    }

    /// Decodes every recorded result, rejecting out-of-range indices and
    /// undecodable payloads.
    pub fn decoded<R: Record>(&self) -> Result<Vec<(usize, R)>, CheckpointError> {
        self.done
            .iter()
            .enumerate()
            .map(|(n, (index, payload))| {
                let malformed = |reason: String| CheckpointError::Malformed {
                    // +5 for the four header lines, 1-based.
                    line: n + 5,
                    reason,
                };
                if *index >= self.tasks {
                    return Err(malformed(format!(
                        "task index {index} out of range (campaign has {} tasks)",
                        self.tasks
                    )));
                }
                let record = R::decode(payload)
                    .ok_or_else(|| malformed(format!("undecodable result {payload:?}")))?;
                Ok((*index, record))
            })
            .collect()
    }

    /// Serializes the checkpoint to its file format.
    pub fn render(&self) -> String {
        let nanos = u64::try_from(self.consumed.as_nanos()).unwrap_or(u64::MAX);
        let mut out = format!(
            "{MAGIC}\nsettings {:016x}\ntasks {}\nelapsed {nanos}\n",
            self.settings_hash, self.tasks
        );
        for (index, payload) in &self.done {
            out.push_str(&format!("done {index} {payload}\n"));
        }
        out
    }

    /// Parses the file format produced by [`Checkpoint::render`].
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let malformed = |line: usize, reason: &str| CheckpointError::Malformed {
            line,
            reason: reason.to_owned(),
        };
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines.next().ok_or_else(|| malformed(1, "empty file"))?;
        if magic.trim() != MAGIC {
            return Err(malformed(1, "missing `secbench-checkpoint v1` header"));
        }
        let settings_hash = match lines.next() {
            Some((_, l)) if l.starts_with("settings ") => {
                u64::from_str_radix(l["settings ".len()..].trim(), 16)
                    .map_err(|_| malformed(2, "unparsable settings fingerprint"))?
            }
            _ => return Err(malformed(2, "missing `settings` line")),
        };
        let tasks = match lines.next() {
            Some((_, l)) if l.starts_with("tasks ") => l["tasks ".len()..]
                .trim()
                .parse()
                .map_err(|_| malformed(3, "unparsable task count"))?,
            _ => return Err(malformed(3, "missing `tasks` line")),
        };
        // The `elapsed` header is optional: checkpoints written before
        // deadline accounting existed lack it and resume with zero
        // consumed wall-clock.
        let mut consumed = std::time::Duration::ZERO;
        let mut pending = None;
        match lines.next() {
            Some((_, l)) if l.starts_with("elapsed ") => {
                let nanos: u64 = l["elapsed ".len()..]
                    .trim()
                    .parse()
                    .map_err(|_| malformed(4, "unparsable elapsed nanoseconds"))?;
                consumed = std::time::Duration::from_nanos(nanos);
            }
            Some(other) => pending = Some(other),
            None => {}
        }
        let mut done = Vec::new();
        for (i, line) in pending.into_iter().chain(lines) {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("done ")
                .ok_or_else(|| malformed(lineno, "expected a `done` line"))?;
            let (index, payload) = rest
                .split_once(' ')
                .ok_or_else(|| malformed(lineno, "expected `done <index> <result>`"))?;
            let index: usize = index
                .parse()
                .map_err(|_| malformed(lineno, "unparsable task index"))?;
            done.push((index, payload.to_owned()));
        }
        Ok(Checkpoint {
            settings_hash,
            tasks,
            consumed,
            done,
        })
    }

    /// Writes the checkpoint to `path` crash-safely: the content is
    /// sealed in the checksummed [`crate::iofault`] frame, staged through
    /// a sibling temp file, atomically renamed over the target, and the
    /// parent directory is fsynced so the rename survives a power loss. A
    /// valid existing checkpoint is first rotated to `<path>.prev`, so a
    /// torn write of the new generation never loses the last good one.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(path, &IoInjector::disabled())
    }

    /// [`Checkpoint::save`] through an I/O fault-injection seam
    /// (`--inject-io`).
    pub fn save_with(&self, path: &Path, injector: &IoInjector) -> Result<(), CheckpointError> {
        let sealed = iofault::seal(&self.render());
        iofault::write_generations(path, sealed.as_bytes(), injector, |text| {
            Checkpoint::parse_stored(text).is_ok()
        })?;
        Ok(())
    }

    /// Parses stored checkpoint bytes: a sealed frame is verified and
    /// stripped first; an unframed file (pre-checksum releases) parses
    /// directly.
    pub fn parse_stored(text: &str) -> Result<Checkpoint, CheckpointError> {
        if iofault::is_framed(text) {
            let payload = iofault::unseal(text).map_err(|reason| CheckpointError::Malformed {
                line: 1,
                reason: format!("frame check failed: {reason}"),
            })?;
            Checkpoint::parse(payload)
        } else {
            Checkpoint::parse(text)
        }
    }

    /// Reads and parses a checkpoint file (strict: a corrupt file is an
    /// error — see [`Checkpoint::load_recovering`] for the fallback
    /// chain).
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::parse_stored(&fs::read_to_string(path)?)
    }

    /// Loads `path` with generation-based recovery: a corrupt or torn
    /// current file falls back to the last good `<path>.prev` generation;
    /// if both are unreadable the campaign starts fresh. Never fails —
    /// corruption costs only re-computed shards, and every fallback point
    /// resumes bitwise-identically because trial seeds are pure functions
    /// of their coordinates. The returned variant says which generation
    /// answered so callers can emit telemetry. Campaign *identity*
    /// mismatches are not recovery's business: callers still
    /// [`Checkpoint::validate`] whatever is returned.
    pub fn load_recovering(path: &Path, injector: &IoInjector) -> RecoveredLoad {
        let read = |p: &Path| -> Result<Checkpoint, CheckpointError> {
            Checkpoint::parse_stored(&iofault::read_to_string(p, injector)?)
        };
        let current_err = match read(path) {
            Ok(ck) => return RecoveredLoad::Current(ck),
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return RecoveredLoad::Missing
            }
            Err(e) => e.to_string(),
        };
        match read(&iofault::prev_path(path)) {
            Ok(ck) => RecoveredLoad::Previous {
                checkpoint: ck,
                error: current_err,
            },
            Err(_) => RecoveredLoad::Fresh { error: current_err },
        }
    }
}

/// What [`Checkpoint::load_recovering`] found on disk.
#[derive(Debug)]
pub enum RecoveredLoad {
    /// No checkpoint file exists: a first run, not a recovery.
    Missing,
    /// The current generation is intact.
    Current(Checkpoint),
    /// The current generation is corrupt; the previous good generation
    /// answered.
    Previous {
        /// The recovered previous generation.
        checkpoint: Checkpoint,
        /// Why the current generation was rejected.
        error: String,
    },
    /// Both generations are unreadable: the campaign starts fresh.
    Fresh {
        /// Why the current generation was rejected.
        error: String,
    },
}

/// Folds `parts` into `base` with [`splitmix64`] — the common fingerprint
/// combinator for campaign identities.
pub fn fingerprint(base: u64, parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = splitmix64(base);
    for part in parts {
        h = splitmix64(h ^ part);
    }
    h
}

/// Fingerprints a string (e.g. a driver name) into a fingerprint part.
pub fn fingerprint_str(s: &str) -> u64 {
    fingerprint(0x5ec_b3c4, s.bytes().map(u64::from))
}

/// Fingerprints the [`TrialSettings`] fields that determine a campaign's
/// *results*. The worker count is not among them: any sharding of the
/// trial space produces bitwise-identical measurements, so a checkpoint
/// taken with `--workers 8` must resume cleanly under `--workers 2` (or
/// one worker).
pub fn settings_fingerprint(settings: &TrialSettings) -> u64 {
    use sectlb_tlb::RandomFillEviction;
    fingerprint(
        0x0007_ab1e_c4ec,
        [
            u64::from(settings.trials),
            settings.base_seed,
            settings.config.ways() as u64,
            settings.config.sets() as u64,
            settings.config.entries() as u64,
            match settings.rf_eviction {
                RandomFillEviction::RandomWay => 0,
                RandomFillEviction::LruWay => 1,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sectlb-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn measurement_record_roundtrips() {
        let m = Measurement {
            trials: 25,
            n_mapped_miss: 7,
            n_not_mapped_miss: 19,
        };
        assert_eq!(Measurement::decode(&m.encode()), Some(m));
        assert_eq!(Measurement::decode("1 2"), None);
        assert_eq!(Measurement::decode("1 2 3 4"), None);
    }

    #[test]
    fn f64_record_is_bitwise() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 0.1 + 0.2] {
            let back = f64::decode(&v.encode()).expect("decodes");
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn checkpoint_file_roundtrips() {
        let mut ck = Checkpoint::new(0xdead_beef, 10);
        ck.consumed = std::time::Duration::from_nanos(45_000_000_123);
        ck.record(3, &7u64);
        ck.record(
            0,
            &Measurement {
                trials: 5,
                n_mapped_miss: 1,
                n_not_mapped_miss: 2,
            },
        );
        let parsed = Checkpoint::parse(&ck.render()).expect("parses");
        assert_eq!(parsed, ck);
    }

    #[test]
    fn legacy_files_without_elapsed_load_with_zero_consumed() {
        let text = "secbench-checkpoint v1\nsettings 00000000000000ff\ntasks 2\ndone 1 9\n";
        let ck = Checkpoint::parse(text).expect("parses");
        assert_eq!(ck.consumed, std::time::Duration::ZERO);
        assert_eq!(ck.done, vec![(1, "9".to_owned())]);
        assert!(matches!(
            Checkpoint::parse("secbench-checkpoint v1\nsettings 00\ntasks 2\nelapsed x\n"),
            Err(CheckpointError::Malformed { line: 4, .. })
        ));
    }

    #[test]
    fn save_and_load_via_atomic_rename() {
        let path = tmp_path("save-load");
        let mut ck = Checkpoint::new(42, 3);
        ck.record(1, &99u64);
        ck.save(&path).expect("saves");
        let on_disk = std::fs::read_to_string(&path).expect("reads");
        assert!(iofault::is_framed(&on_disk), "saves are checksummed");
        let loaded = Checkpoint::load(&path).expect("loads");
        assert_eq!(loaded, ck);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(iofault::prev_path(&path)).ok();
    }

    #[test]
    fn unframed_legacy_saves_still_load() {
        let path = tmp_path("legacy-unframed");
        let mut ck = Checkpoint::new(7, 4);
        ck.record(2, &11u64);
        std::fs::write(&path, ck.render()).expect("writes");
        assert_eq!(Checkpoint::load(&path).expect("loads"), ck);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_recovering_walks_the_generation_chain() {
        let path = tmp_path("recovering");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(iofault::prev_path(&path)).ok();
        let inj = IoInjector::disabled();
        assert!(matches!(
            Checkpoint::load_recovering(&path, &inj),
            RecoveredLoad::Missing
        ));

        let mut gen1 = Checkpoint::new(42, 3);
        gen1.record(0, &1u64);
        gen1.save(&path).expect("saves");
        match Checkpoint::load_recovering(&path, &inj) {
            RecoveredLoad::Current(ck) => assert_eq!(ck, gen1),
            other => panic!("expected Current, got {other:?}"),
        }

        // A second save rotates gen1 to `.prev`; corrupting the current
        // generation then recovers gen1 instead of erroring.
        let mut gen2 = gen1.clone();
        gen2.record(1, &2u64);
        gen2.save(&path).expect("saves");
        let sealed = std::fs::read_to_string(&path).expect("reads");
        std::fs::write(&path, &sealed[..sealed.len() / 2]).expect("truncates");
        match Checkpoint::load_recovering(&path, &inj) {
            RecoveredLoad::Previous { checkpoint, error } => {
                assert_eq!(checkpoint, gen1);
                assert!(!error.is_empty());
            }
            other => panic!("expected Previous, got {other:?}"),
        }

        // Both generations gone bad: fresh start, never a panic.
        std::fs::write(iofault::prev_path(&path), "junk").expect("corrupts");
        assert!(matches!(
            Checkpoint::load_recovering(&path, &inj),
            RecoveredLoad::Fresh { .. }
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(iofault::prev_path(&path)).ok();
    }

    #[test]
    fn torn_injected_saves_keep_the_previous_generation_loadable() {
        let path = tmp_path("torn-gen");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(iofault::prev_path(&path)).ok();
        let torn = IoInjector::new(
            9,
            crate::iofault::IoFault {
                kind: crate::iofault::IoFaultKind::Torn,
                per_mille: 1000,
            },
        );
        // Every save is torn: no generation is ever valid, so recovery
        // reports a fresh start — but never panics, never loads garbage.
        let mut ck = Checkpoint::new(1, 2);
        ck.record(0, &5u64);
        ck.save_with(&path, &torn)
            .expect("torn saves report success");
        assert!(matches!(
            Checkpoint::load_recovering(&path, &IoInjector::disabled()),
            RecoveredLoad::Fresh { .. }
        ));

        // A good save, then a torn one: the good generation rotates to
        // `.prev` and recovery falls back to it.
        ck.save(&path).expect("saves");
        let mut later = ck.clone();
        later.record(1, &6u64);
        later
            .save_with(&path, &torn)
            .expect("torn saves report success");
        match Checkpoint::load_recovering(&path, &IoInjector::disabled()) {
            RecoveredLoad::Previous { checkpoint, .. } => assert_eq!(checkpoint, ck),
            other => panic!("expected Previous, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(iofault::prev_path(&path)).ok();
    }

    #[test]
    fn validate_rejects_foreign_campaigns() {
        let ck = Checkpoint::new(1, 5);
        assert!(ck.validate(1, 5).is_ok());
        assert!(matches!(
            ck.validate(2, 5),
            Err(CheckpointError::SettingsMismatch { .. })
        ));
        assert!(matches!(
            ck.validate(1, 6),
            Err(CheckpointError::TaskCountMismatch { .. })
        ));
    }

    #[test]
    fn malformed_files_are_rejected_with_line_numbers() {
        assert!(matches!(
            Checkpoint::parse(""),
            Err(CheckpointError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            Checkpoint::parse("secbench-checkpoint v1\nsettings zz\n"),
            Err(CheckpointError::Malformed { line: 2, .. })
        ));
        let text = "secbench-checkpoint v1\nsettings 00000000000000ff\ntasks 2\nnope\n";
        assert!(matches!(
            Checkpoint::parse(text),
            Err(CheckpointError::Malformed { line: 4, .. })
        ));
    }

    #[test]
    fn decoded_rejects_out_of_range_indices() {
        let mut ck = Checkpoint::new(0, 2);
        ck.record(5, &1u64);
        assert!(matches!(
            ck.decoded::<u64>(),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn settings_fingerprint_tracks_results_knobs() {
        let base = TrialSettings::default();
        assert_eq!(settings_fingerprint(&base), settings_fingerprint(&base));
        let other_trials = TrialSettings {
            trials: base.trials + 1,
            ..base
        };
        assert_ne!(
            settings_fingerprint(&base),
            settings_fingerprint(&other_trials)
        );
        let other_seed = TrialSettings {
            base_seed: base.base_seed ^ 1,
            ..base
        };
        assert_ne!(
            settings_fingerprint(&base),
            settings_fingerprint(&other_seed)
        );
    }
}
