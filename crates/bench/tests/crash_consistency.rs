//! End-to-end pin of the crash-consistency contract.
//!
//! The acceptance scenario of the storage hardening: even with *every*
//! checkpoint write torn (`--inject-io torn:1000`), an interrupted
//! campaign resumes — via generation fallback or a declared fresh start
//! — and produces byte-identical output to an uninterrupted run. The
//! checkpoint files on both sides are audited through the same recovery
//! chain a resume uses ([`Checkpoint::load_recovering`]), so a torn
//! generation is always detected and never parsed into garbage.

use std::path::{Path, PathBuf};
use std::process::Command;

use sectlb_secbench::checkpoint::{Checkpoint, RecoveredLoad};
use sectlb_secbench::iofault::{self, IoInjector};
use sectlb_secbench::run::Measurement;

const TABLE4: &str = env!("CARGO_BIN_EXE_table4");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sectlb-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    dir
}

/// Every recorded result of `ck` decodes as a [`Measurement`] — the
/// "never garbage" half of the recovery contract.
fn assert_decodes(ck: &Checkpoint, what: &str) {
    let decoded = ck
        .decoded::<Measurement>()
        .unwrap_or_else(|e| panic!("{what}: recorded results must decode: {e}"));
    assert_eq!(decoded.len(), ck.done.len(), "{what}");
    assert!(ck.done.len() <= ck.tasks, "{what}: more results than tasks");
}

/// A `.prev` generation, when one exists, is a strict history of the
/// current one: never ahead of it, and every result it recorded is
/// recorded identically in the current generation.
fn assert_prev_not_ahead(path: &Path, current: &Checkpoint) {
    let prev_path = iofault::prev_path(path);
    if !prev_path.exists() {
        return;
    }
    let prev = Checkpoint::load(&prev_path).expect("a rotated generation is always valid");
    assert_decodes(&prev, "previous generation");
    assert_eq!(prev.settings_hash, current.settings_hash);
    assert!(
        prev.done.len() <= current.done.len(),
        "previous generation ({} results) is ahead of the current one ({})",
        prev.done.len(),
        current.done.len()
    );
    for entry in &prev.done {
        assert!(
            current.done.contains(entry),
            "previous generation records {entry:?}, which the current one lost"
        );
    }
}

#[test]
fn torn_checkpoints_still_resume_byte_identically_and_verify_clean() {
    let ref_state = tmp_dir("torn-ref");
    let state = tmp_dir("torn");
    let common = [
        "--trials",
        "10",
        "--workers",
        "2",
        "--checkpoint-every",
        "1",
    ];
    let clean = IoInjector::disabled();

    // Reference: checkpointed but never interrupted, no injection.
    let ref_ck = ref_state.join("ck.txt");
    let reference = Command::new(TABLE4)
        .args(common)
        .arg("--checkpoint")
        .arg(&ref_ck)
        .output()
        .expect("table4 runs");
    assert!(
        reference.status.success(),
        "reference run: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    // The undisturbed reference loads as the current generation with
    // every task done, and its `.prev` generation trails it.
    let RecoveredLoad::Current(current) = Checkpoint::load_recovering(&ref_ck, &clean) else {
        panic!("an undisturbed checkpoint loads as the current generation");
    };
    assert_decodes(&current, "reference checkpoint");
    assert_eq!(current.done.len(), current.tasks, "every task recorded");
    assert_prev_not_ahead(&ref_ck, &current);

    // Interrupted: every checkpoint write torn, killed mid-campaign.
    let ck = state.join("ck.txt");
    let torn = [
        "--inject-io",
        "torn:1000",
        "--fault-seed",
        "9",
        "--kill-after",
        "4",
    ];
    let interrupted = Command::new(TABLE4)
        .args(common)
        .arg("--checkpoint")
        .arg(&ck)
        .args(torn)
        .output()
        .expect("table4 runs");
    assert_eq!(
        interrupted.status.code(),
        Some(3),
        "kill switch exits EXIT_INTERRUPTED: {}",
        String::from_utf8_lossy(&interrupted.stderr)
    );
    // The torn state is detected: it recovers as the previous generation
    // or a declared fresh start, never as a parsed torn file.
    match Checkpoint::load_recovering(&ck, &clean) {
        RecoveredLoad::Previous { checkpoint, .. } => {
            assert_decodes(&checkpoint, "recovered previous generation")
        }
        RecoveredLoad::Fresh { .. } => {}
        RecoveredLoad::Current(_) => panic!("a torn checkpoint must not load as current"),
        RecoveredLoad::Missing => panic!("the interrupted run wrote a checkpoint"),
    }

    // Resume under the same injection: every generation of the
    // checkpoint is torn, so recovery declares a fresh start — which the
    // determinism contract makes byte-identical anyway.
    let resumed = Command::new(TABLE4)
        .args(common)
        .arg("--checkpoint")
        .arg(&ck)
        .arg("--resume")
        .arg(&ck)
        .args(["--inject-io", "torn:1000", "--fault-seed", "9"])
        .output()
        .expect("table4 runs");
    assert!(
        resumed.status.success(),
        "resumed run: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed output must be byte-identical to the uninterrupted reference"
    );

    let _ = std::fs::remove_dir_all(&ref_state);
    let _ = std::fs::remove_dir_all(&state);
}
