//! Property tests for checksummed storage under arbitrary corruption.
//!
//! The crash-consistency contract: a stored checkpoint that
//! has been truncated or bit-flipped at *any* offset must either load
//! bitwise-identically (the damage missed the payload — e.g. hit a
//! trailing newline the parser tolerates) or be *detected*, in which
//! case recovery falls back to the previous good generation or a fresh
//! start. Never a panic, never silently loading garbage.

use proptest::prelude::*;
use sectlb_secbench::checkpoint::{Checkpoint, RecoveredLoad};
use sectlb_secbench::iofault::{self, IoInjector};
use sectlb_secbench::run::Measurement;

fn sample_checkpoint(settings_hash: u64, results: &[(u32, u32, u32)]) -> Checkpoint {
    let mut ck = Checkpoint::new(settings_hash, results.len().max(1));
    for (i, &(t, a, b)) in results.iter().enumerate() {
        ck.record(
            i,
            &Measurement {
                trials: t,
                n_mapped_miss: a,
                n_not_mapped_miss: b,
            },
        );
    }
    ck
}

/// Applies one corruption to the stored bytes: truncate at an offset, or
/// flip one bit of one byte.
fn corrupt(stored: &str, offset: usize, bit: u8, truncate: bool) -> Vec<u8> {
    let mut bytes = stored.as_bytes().to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let at = offset % bytes.len();
    if truncate {
        bytes.truncate(at);
    } else {
        bytes[at] ^= 1 << (bit % 8);
    }
    bytes
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sectlb-corrupt-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corrupted framed checkpoints are either still bitwise-identical
    /// after parsing (corruption hit slack the format tolerates) or
    /// rejected — `parse_stored` must never panic or return a checkpoint
    /// that differs from what was saved.
    #[test]
    fn corrupted_checkpoints_never_parse_to_garbage(
        settings_hash in any::<u64>(),
        results in proptest::collection::vec((0u32..=2000, 0u32..=2000, 0u32..=2000), 0..12),
        offset in any::<usize>(),
        bit in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let ck = sample_checkpoint(settings_hash, &results);
        let stored = iofault::seal(&ck.render());
        let damaged = corrupt(&stored, offset, bit, truncate);
        // Bit flips can produce invalid UTF-8; the loader reads via
        // read_to_string and surfaces that as an I/O error upstream. A
        // parse error means the damage was detected: recovery falls
        // back a generation.
        if let Ok(text) = std::str::from_utf8(&damaged) {
            if let Ok(parsed) = Checkpoint::parse_stored(text) {
                prop_assert_eq!(
                    &parsed,
                    &ck,
                    "a checkpoint that parses must be bitwise what was saved"
                );
            }
        }
    }

    /// End-to-end generation recovery: save generation A, then
    /// generation B, then corrupt the current file on disk at an
    /// arbitrary offset. `load_recovering` must hand back either B
    /// bitwise (damage tolerated) or A bitwise (fallback) — and must
    /// never panic or fabricate a third state.
    #[test]
    fn on_disk_corruption_falls_back_to_the_previous_generation(
        settings_hash in any::<u64>(),
        first in proptest::collection::vec((0u32..=500, 0u32..=500, 0u32..=500), 1..6),
        extra in proptest::collection::vec((0u32..=500, 0u32..=500, 0u32..=500), 1..6),
        offset in any::<usize>(),
        bit in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let dir = tmp_dir("gen");
        let path = dir.join("ck.txt");
        let injector = IoInjector::disabled();

        let tasks = first.len() + extra.len();
        let mut older = Checkpoint::new(settings_hash, tasks);
        for (i, &(t, a, b)) in first.iter().enumerate() {
            older.record(i, &Measurement { trials: t, n_mapped_miss: a, n_not_mapped_miss: b });
        }
        let mut newer = older.clone();
        for (k, &(t, a, b)) in extra.iter().enumerate() {
            newer.record(first.len() + k,
                &Measurement { trials: t, n_mapped_miss: a, n_not_mapped_miss: b });
        }
        older.save_with(&path, &injector).expect("save generation A");
        newer.save_with(&path, &injector).expect("save generation B");

        let stored = std::fs::read_to_string(&path).expect("read back");
        std::fs::write(&path, corrupt(&stored, offset, bit, truncate)).expect("damage");

        match Checkpoint::load_recovering(&path, &injector) {
            RecoveredLoad::Current(ck) => prop_assert_eq!(ck, newer),
            RecoveredLoad::Previous { checkpoint, .. } => prop_assert_eq!(checkpoint, older),
            // The damaged file still exists on disk, so recovery can
            // never report it missing.
            RecoveredLoad::Missing => {
                prop_assert!(false, "damaged current reported as missing");
            }
            RecoveredLoad::Fresh { error } => {
                prop_assert!(
                    false,
                    "previous generation was intact but recovery went fresh: {}",
                    error
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
