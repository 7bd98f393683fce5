//! Deterministic I/O fault injection and the durable-write seam.
//!
//! Every durability claim the campaign stack makes — checkpoints survive
//! `kill -9`, repro files are never half-written — rests on a small set of filesystem idioms. This
//! module owns those idioms in one place and makes them *testable under
//! adversity*:
//!
//! - [`write_atomic`] — temp file, `fsync`, atomic rename, **parent
//!   directory `fsync`** (without the last step the rename itself can be
//!   lost on power failure: the file data is durable but the directory
//!   entry pointing at it is not).
//! - [`seal`] / [`unseal`] — a length-framed, double-checksummed envelope
//!   (header CRC32 + payload CRC32) so a torn or bit-flipped file is
//!   *detected* on load instead of parsed into garbage.
//! - [`write_generations`] — keeps the previous good generation at
//!   `<path>.prev` before overwriting, so a corrupt current file can be
//!   recovered from instead of aborting a week-long campaign.
//! - [`IoInjector`] — a deterministic fault injector threaded under the
//!   checkpoint, repro, and telemetry writes. Driven by the
//!   seeded fault plan (`--inject-io torn|short-read|enospc|rename-fail[:PM]`),
//!   it tears writes (prefix-only flush), truncates reads, fails writes
//!   with ENOSPC, or fails renames — keyed by a per-injector operation
//!   counter through the same `splitmix64` roll the shard-fault plan
//!   uses, so an injected run is exactly reproducible.
//!
//! The recovery contract built on top (see [`crate::checkpoint`]): a load
//! either succeeds bitwise-identically, falls back to the previous good
//! generation, or declares a fresh start — it never panics and never
//! silently accepts corrupt data.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::run::splitmix64;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// behind [`seal`]/[`unseal`]. Bitwise implementation: no table, no
/// dependency, fast enough for the short metadata files it protects.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Magic first token of a sealed frame (see [`seal`]).
pub const FRAME_MAGIC: &str = "secbench-frame v1";

/// Wraps `payload` in the length-framed, double-checksummed envelope:
///
/// ```text
/// secbench-frame v1 <payload-len> <payload-crc32> <header-crc32>
/// <payload bytes...>
/// ```
///
/// The header CRC covers the header itself (magic, length, payload CRC),
/// so a corrupted *header* is as detectable as a corrupted payload; the
/// payload CRC covers every payload byte. [`unseal`] verifies both.
pub fn seal(payload: &str) -> String {
    let head = format!(
        "{FRAME_MAGIC} {} {:08x}",
        payload.len(),
        crc32(payload.as_bytes())
    );
    format!("{head} {:08x}\n{payload}", crc32(head.as_bytes()))
}

/// Whether `text` begins with a [`seal`] envelope (used to keep loading
/// legacy, pre-frame files).
pub fn is_framed(text: &str) -> bool {
    text.starts_with(FRAME_MAGIC)
}

/// Verifies and strips a [`seal`] envelope, returning the payload.
///
/// # Errors
///
/// A human-readable reason when the header is missing or malformed,
/// either CRC mismatches, or the payload length disagrees with the
/// header — i.e. whenever the file cannot be trusted bitwise.
pub fn unseal(text: &str) -> Result<&str, String> {
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| "frame has no header line".to_owned())?;
    let rest = header
        .strip_prefix(FRAME_MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("missing `{FRAME_MAGIC}` header"))?;
    let mut tokens = rest.split(' ');
    let len: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| "unparsable payload length".to_owned())?;
    let payload_crc = tokens
        .next()
        .and_then(|t| u32::from_str_radix(t, 16).ok())
        .ok_or_else(|| "unparsable payload CRC".to_owned())?;
    let header_crc = tokens
        .next()
        .and_then(|t| u32::from_str_radix(t, 16).ok())
        .ok_or_else(|| "unparsable header CRC".to_owned())?;
    if tokens.next().is_some() {
        return Err("trailing tokens after header CRC".to_owned());
    }
    let covered = &header[..header.len() - 9]; // strip " <8-hex-header-crc>"
    let actual_header = crc32(covered.as_bytes());
    if actual_header != header_crc {
        return Err(format!(
            "header CRC mismatch (stored {header_crc:08x}, computed {actual_header:08x})"
        ));
    }
    if payload.len() != len {
        return Err(format!(
            "payload truncated: header promises {len} bytes, file has {}",
            payload.len()
        ));
    }
    let actual_payload = crc32(payload.as_bytes());
    if actual_payload != payload_crc {
        return Err(format!(
            "payload CRC mismatch (stored {payload_crc:08x}, computed {actual_payload:08x})"
        ));
    }
    Ok(payload)
}

/// The injectable I/O fault classes of `--inject-io`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// A durable write flushes only a prefix of its bytes (what a crash
    /// between `write` and `fsync` leaves behind) but still reports
    /// success — the corruption is only discoverable on the next load.
    Torn,
    /// A read returns only a prefix of the file.
    ShortRead,
    /// A durable write fails outright with an out-of-space error.
    Enospc,
    /// The atomic rename publishing a durable write fails, leaving the
    /// temp file stranded and the target untouched.
    RenameFail,
}

impl IoFaultKind {
    /// The canonical flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            IoFaultKind::Torn => "torn",
            IoFaultKind::ShortRead => "short-read",
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::RenameFail => "rename-fail",
        }
    }

    /// Parses the canonical flag spelling.
    pub fn parse(word: &str) -> Option<IoFaultKind> {
        match word {
            "torn" => Some(IoFaultKind::Torn),
            "short-read" => Some(IoFaultKind::ShortRead),
            "enospc" => Some(IoFaultKind::Enospc),
            "rename-fail" => Some(IoFaultKind::RenameFail),
            _ => None,
        }
    }
}

/// One configured I/O fault: which class, at what per-mille rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// The fault class.
    pub kind: IoFaultKind,
    /// Per-mille of matching operations that fault (1000 = every one).
    pub per_mille: u16,
}

struct InjectorState {
    seed: u64,
    fault: IoFault,
    ops: AtomicU64,
}

/// A cheap, cloneable handle deciding which durable I/O operations fault.
///
/// Deterministic: whether operation `n` of the configured class faults is
/// a pure function of `(seed, n)` via [`splitmix64`], mirroring the
/// shard-level `FaultPlan` rolls — an injected campaign replays exactly.
/// The disabled handle ([`IoInjector::disabled`]) is a no-op on every
/// path and is what all production callers pass by default.
#[derive(Clone, Default)]
pub struct IoInjector {
    inner: Option<Arc<InjectorState>>,
}

impl std::fmt::Debug for IoInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "IoInjector(disabled)"),
            Some(s) => write!(
                f,
                "IoInjector({} {}\u{2030}, seed {:#x})",
                s.fault.kind.as_str(),
                s.fault.per_mille,
                s.seed
            ),
        }
    }
}

impl IoInjector {
    /// A handle that injects nothing (the default).
    pub fn disabled() -> IoInjector {
        IoInjector::default()
    }

    /// A handle injecting `fault` at its configured rate, seeded like the
    /// shard fault plan.
    pub fn new(seed: u64, fault: IoFault) -> IoInjector {
        IoInjector {
            inner: Some(Arc::new(InjectorState {
                seed,
                fault,
                ops: AtomicU64::new(0),
            })),
        }
    }

    /// Whether any fault is configured.
    pub fn is_active(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.fault.per_mille > 0)
    }

    /// Rolls the next operation of class `kind`: `true` means the fault
    /// fires. Operations of other classes are untouched (and do not
    /// advance the counter, so the sequence of *matching* operations is
    /// what the plan is keyed by).
    pub fn fires(&self, kind: IoFaultKind) -> bool {
        let Some(s) = &self.inner else { return false };
        if s.fault.kind != kind || s.fault.per_mille == 0 {
            return false;
        }
        let op = s.ops.fetch_add(1, Ordering::SeqCst);
        (splitmix64(splitmix64(s.seed ^ 0x10_fa17) ^ op) % 1000) < u64::from(s.fault.per_mille)
    }

    fn injected_error(&self, what: &str) -> io::Error {
        io::Error::other(format!("injected {what} (--inject-io)"))
    }
}

/// `fsync`s a directory, making previously renamed entries durable. A
/// no-op error-wise on filesystems that reject directory syncs.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        // An empty parent means a bare relative filename: the CWD.
        Some(p) if p.as_os_str().is_empty() => sync_dir(Path::new(".")),
        Some(p) => sync_dir(p),
        None => Ok(()),
    }
}

/// The sibling temp path `write_atomic` stages through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(tmp)
}

/// The previous-generation sibling of a generation-chained file
/// (`<path>.prev`).
pub fn prev_path(path: &Path) -> PathBuf {
    let mut prev = path.as_os_str().to_owned();
    prev.push(".prev");
    PathBuf::from(prev)
}

/// Writes `bytes` to `path` durably: sibling temp file, file `fsync`,
/// atomic rename, parent-directory `fsync`. A kill at any instant leaves
/// either the old complete file or the new complete one.
///
/// Under an active [`IoInjector`] the write may be torn (prefix-only,
/// reported as success — detected by [`unseal`] on the next load), fail
/// with ENOSPC, or have its rename fail; exactly one injection roll is
/// consumed per call.
///
/// # Errors
///
/// Propagates filesystem errors (and injected ENOSPC / rename failures).
pub fn write_atomic(path: &Path, bytes: &[u8], injector: &IoInjector) -> io::Result<()> {
    if injector.fires(IoFaultKind::Enospc) {
        return Err(injector.injected_error("ENOSPC"));
    }
    let flushed = if injector.fires(IoFaultKind::Torn) {
        &bytes[..bytes.len() / 2]
    } else {
        bytes
    };
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(flushed)?;
        file.sync_all()?;
    }
    if injector.fires(IoFaultKind::RenameFail) {
        // The stranded temp file is deliberate: that is exactly what a
        // real failed rename leaves behind.
        return Err(injector.injected_error("rename failure"));
    }
    fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// [`write_atomic`] with a generation chain: a *valid* existing current
/// file is rotated to `<path>.prev` first, so the last good generation
/// survives a torn overwrite. `valid` is the caller's format check
/// (typically [`unseal`] + parse); an invalid current file — torn by a
/// crash or by injection — is discarded rather than allowed to clobber
/// the good previous generation.
///
/// # Errors
///
/// Propagates filesystem errors from the rotation and the write.
pub fn write_generations(
    path: &Path,
    bytes: &[u8],
    injector: &IoInjector,
    valid: impl Fn(&str) -> bool,
) -> io::Result<()> {
    if let Ok(current) = fs::read_to_string(path) {
        if valid(&current) {
            fs::rename(path, prev_path(path))?;
            sync_parent(path)?;
        }
    }
    write_atomic(path, bytes, injector)
}

/// Reads `path` through the injection seam: an injected short read
/// returns only a prefix (cut at a char boundary), which the frame CRCs
/// then flag exactly like a torn write.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn read_to_string(path: &Path, injector: &IoInjector) -> io::Result<String> {
    let text = fs::read_to_string(path)?;
    if injector.fires(IoFaultKind::ShortRead) && !text.is_empty() {
        let mut cut = text.len() / 2;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return Ok(text[..cut].to_owned());
    }
    Ok(text)
}

/// A [`Write`](io::Write) adapter applying the injection seam to a byte
/// stream (the telemetry JSONL sink): an injected write-class fault fails
/// the write, which the telemetry layer degrades on (disables its sink)
/// instead of taking the campaign down.
pub struct FaultyWriter<W> {
    inner: W,
    injector: IoInjector,
}

impl<W: io::Write> FaultyWriter<W> {
    /// Wraps `inner` with `injector`.
    pub fn new(inner: W, injector: IoInjector) -> FaultyWriter<W> {
        FaultyWriter { inner, injector }
    }
}

impl<W: io::Write> io::Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.injector.fires(IoFaultKind::Enospc) {
            return Err(self.injector.injected_error("ENOSPC"));
        }
        if self.injector.fires(IoFaultKind::Torn) {
            // Flush the prefix, then fail: a stream has no rename to
            // hide behind, so the caller must see the error.
            let _ = self.inner.write(&buf[..buf.len() / 2]);
            return Err(self.injector.injected_error("torn stream write"));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sectlb-iofault-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_unseal_round_trips_and_detects_damage() {
        for payload in [
            "",
            "x",
            "secbench-checkpoint v1\nsettings 00\n",
            "émoji ✓\n",
        ] {
            let sealed = seal(payload);
            assert!(is_framed(&sealed));
            assert_eq!(unseal(&sealed).expect("round-trips"), payload);
        }
        let sealed = seal("settings 00c0ffee\ntasks 3\n");
        // Truncation at every possible length is detected.
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Any single-byte flip is detected.
        let bytes = sealed.as_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x01;
            if let Ok(text) = std::str::from_utf8(&flipped) {
                assert!(unseal(text).is_err(), "flip at {i} accepted");
            }
        }
    }

    #[test]
    fn disabled_injector_never_fires() {
        let inj = IoInjector::disabled();
        for _ in 0..100 {
            assert!(!inj.fires(IoFaultKind::Torn));
            assert!(!inj.fires(IoFaultKind::Enospc));
        }
        assert!(!inj.is_active());
    }

    #[test]
    fn injector_is_deterministic_and_rate_shaped() {
        let fires = |seed, pm, n| -> Vec<bool> {
            let inj = IoInjector::new(
                seed,
                IoFault {
                    kind: IoFaultKind::Torn,
                    per_mille: pm,
                },
            );
            (0..n).map(|_| inj.fires(IoFaultKind::Torn)).collect()
        };
        assert_eq!(fires(7, 500, 64), fires(7, 500, 64), "replays exactly");
        assert_ne!(fires(7, 500, 64), fires(8, 500, 64), "seed matters");
        assert!(fires(7, 1000, 64).iter().all(|&b| b), "1000‰ always fires");
        assert!(fires(7, 0, 64).iter().all(|&b| !b), "0‰ never fires");
        // Mismatched kinds neither fire nor consume rolls.
        let inj = IoInjector::new(
            7,
            IoFault {
                kind: IoFaultKind::Torn,
                per_mille: 1000,
            },
        );
        assert!(!inj.fires(IoFaultKind::Enospc));
        assert!(inj.fires(IoFaultKind::Torn));
    }

    #[test]
    fn write_atomic_round_trips_and_survives_injection() {
        let path = tmp("atomic");
        write_atomic(&path, b"hello\n", &IoInjector::disabled()).expect("writes");
        assert_eq!(fs::read_to_string(&path).expect("reads"), "hello\n");

        // ENOSPC: the write fails and the target is untouched.
        let enospc = IoInjector::new(
            1,
            IoFault {
                kind: IoFaultKind::Enospc,
                per_mille: 1000,
            },
        );
        assert!(write_atomic(&path, b"new\n", &enospc).is_err());
        assert_eq!(fs::read_to_string(&path).expect("reads"), "hello\n");

        // Torn: reported success, but only a prefix landed.
        let torn = IoInjector::new(
            1,
            IoFault {
                kind: IoFaultKind::Torn,
                per_mille: 1000,
            },
        );
        write_atomic(&path, b"0123456789", &torn).expect("torn writes report success");
        assert_eq!(fs::read_to_string(&path).expect("reads"), "01234");

        // Rename failure: target untouched, temp file stranded.
        let nofail = IoInjector::new(
            1,
            IoFault {
                kind: IoFaultKind::RenameFail,
                per_mille: 1000,
            },
        );
        assert!(write_atomic(&path, b"xxxx", &nofail).is_err());
        assert_eq!(fs::read_to_string(&path).expect("reads"), "01234");
        assert!(tmp_path(&path).exists(), "failed rename strands its temp");
        fs::remove_file(tmp_path(&path)).ok();
        fs::remove_file(&path).ok();
    }

    #[test]
    fn generations_rotate_only_valid_currents() {
        let path = tmp("gen");
        let prev = prev_path(&path);
        fs::remove_file(&path).ok();
        fs::remove_file(&prev).ok();
        let ok = |s: &str| unseal(s).is_ok();
        let inj = IoInjector::disabled();

        write_generations(&path, seal("one").as_bytes(), &inj, ok).expect("writes");
        assert!(!prev.exists(), "first write has nothing to rotate");
        write_generations(&path, seal("two").as_bytes(), &inj, ok).expect("writes");
        assert_eq!(unseal(&fs::read_to_string(&prev).expect("prev")), Ok("one"));
        assert_eq!(unseal(&fs::read_to_string(&path).expect("cur")), Ok("two"));

        // A corrupt current generation is discarded, not rotated: the
        // good previous generation survives.
        fs::write(&path, "garbage").expect("corrupts");
        write_generations(&path, seal("three").as_bytes(), &inj, ok).expect("writes");
        assert_eq!(unseal(&fs::read_to_string(&prev).expect("prev")), Ok("one"));
        assert_eq!(
            unseal(&fs::read_to_string(&path).expect("cur")),
            Ok("three")
        );
        fs::remove_file(&path).ok();
        fs::remove_file(&prev).ok();
    }

    #[test]
    fn short_reads_truncate_deterministically() {
        let path = tmp("short");
        fs::write(&path, "0123456789").expect("writes");
        let inj = IoInjector::new(
            3,
            IoFault {
                kind: IoFaultKind::ShortRead,
                per_mille: 1000,
            },
        );
        assert_eq!(read_to_string(&path, &inj).expect("reads"), "01234");
        assert_eq!(
            read_to_string(&path, &IoInjector::disabled()).expect("reads"),
            "0123456789"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn faulty_writer_fails_writes_but_not_the_caller_contract() {
        use std::io::Write as _;
        let mut out = Vec::new();
        let mut w = FaultyWriter::new(
            &mut out,
            IoInjector::new(
                5,
                IoFault {
                    kind: IoFaultKind::Enospc,
                    per_mille: 1000,
                },
            ),
        );
        assert!(w.write(b"line\n").is_err());
        let mut w = FaultyWriter::new(&mut out, IoInjector::disabled());
        assert_eq!(w.write(b"line\n").expect("writes"), 5);
        assert_eq!(out, b"line\n");
    }

    #[test]
    fn fault_kind_spellings_round_trip() {
        for kind in [
            IoFaultKind::Torn,
            IoFaultKind::ShortRead,
            IoFaultKind::Enospc,
            IoFaultKind::RenameFail,
        ] {
            assert_eq!(IoFaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(IoFaultKind::parse("sparks"), None);
    }
}
