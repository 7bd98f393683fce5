//! The process exit codes shared by every campaign driver binary.
//!
//! Historically each driver hard-coded its own numbers; this module is
//! the single source of truth, re-exporting the codes that originate in
//! `sectlb_secbench` so a driver never has to reach into two crates to
//! spell its exit status:
//!
//! | code | meaning |
//! |---|---|
//! | [`EXIT_OK`] | campaign completed, every cell clean |
//! | 1 | driver-specific failure (e.g. `replay` divergence) |
//! | [`EXIT_USAGE`] | malformed flags, or checkpoint/resume problems |
//! | [`EXIT_INTERRUPTED`] | `--kill-after` halted the campaign |
//! | [`EXIT_QUARANTINED`] | some shards exhausted their retries |
//! | [`EXIT_SETUP`] | the harness could not set a campaign up |
//! | [`EXIT_SUSPECT`] | the shadow oracle caught a model violation |
//! | [`EXIT_BUDGET`] | deadline or signal stopped the campaign early |
//!
//! When several apply the most alarming wins: SUSPECT dominates
//! everything (the model itself misbehaved), then QUARANTINED /
//! BUDGET-style incompleteness, then clean.

pub use sectlb_secbench::oracle::EXIT_SUSPECT;
pub use sectlb_secbench::resilience::EXIT_QUARANTINED;
pub use sectlb_secbench::supervisor::EXIT_BUDGET;

/// Clean exit: the campaign completed and every cell is trustworthy.
pub const EXIT_OK: i32 = 0;

/// Usage errors: malformed flags, missing flag values, checkpoint
/// fingerprint mismatches — anything where the invocation itself is
/// wrong. Matches the conventional shell meaning of exit 2.
pub const EXIT_USAGE: i32 = 2;

/// The deterministic `--kill-after N` switch halted the campaign.
pub const EXIT_INTERRUPTED: i32 = 3;

/// The harness failed to set a campaign up (I/O, missing inputs).
pub const EXIT_SETUP: i32 = 5;

/// Prints a usage error to stderr and exits [`EXIT_USAGE`].
pub fn usage(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(EXIT_USAGE);
}
