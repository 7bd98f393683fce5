//! Micro security benchmarks and channel-capacity analysis.
//!
//! This crate reproduces Section 5 of *Secure TLBs* (ISCA 2019):
//!
//! - [`capacity`] — the binary channel capacity of Equation (1);
//! - [`spec`] — per-vulnerability benchmark specifications (addresses,
//!   phase plans, mapped/not-mapped placements), mirroring the paper's
//!   semi-automatic generation of Figure 6-style assembly tests;
//! - [`generate`] — lowering a specification to an instruction stream for
//!   the simulated machine;
//! - [`run`] — the trial harness: 500 "mapped" + 500 "not mapped" runs per
//!   vulnerability per TLB design, miss-counter observations, and the
//!   empirical `p1*`, `p2*`, `C*`;
//! - [`resilience`] — the campaign engine every driver runs on: the
//!   `(vulnerability, design, placement, trial-chunk)` space spread over
//!   scoped worker threads (one worker is a serial run) with
//!   bitwise-deterministic seeding, panic isolation with deterministic
//!   retry, shard quarantine, checkpoint/resume, and a deterministic
//!   fault-injection harness for testing all of the above. Its
//!   `ResilientRun` is the one campaign outcome: it carries the campaign
//!   telemetry envelope, the exit code, the gap markers and the stderr
//!   summary for every driver;
//! - [`scheduler`] — the work-stealing shard scheduler beneath the
//!   engine: per-worker deques (LIFO owner pop, FIFO steal) whose claim
//!   order never changes *what* runs, only *who* runs it;
//! - [`supervisor`] — the resource-budgeted campaign supervisor:
//!   wall-clock deadlines, per-shard timeouts with cooperative
//!   preemption, and signal-safe graceful shutdown, all draining through
//!   the same flush-checkpoint-render-partial path;
//! - [`checkpoint`] — crash-safe campaign checkpoints (checksummed
//!   frame, temp-file + atomic-rename + directory fsync, and a
//!   previous-good-generation chain) so a killed campaign resumes
//!   bitwise-identically even when the newest file is torn;
//! - [`iofault`] — deterministic I/O fault injection (torn writes, short
//!   reads, ENOSPC, failed renames) plus the durable-write and
//!   CRC-framing seam every on-disk format goes through;
//! - [`oracle`] — campaign-side shadow-oracle guardrails: sampled
//!   lockstep checking, `--inject-corruption` fault injection, SUSPECT
//!   cells, delta-debugged minimal repro files, and their replay;
//! - [`telemetry`] — the structured observability layer: a versioned
//!   JSONL event stream (shard lifecycle, supervisor decisions,
//!   checkpoint flushes, oracle violations) plus an aggregated metrics
//!   snapshot, both off by default and byte-invisible when disabled;
//! - [`theory`] — the theoretical `p1`, `p2`, `C` of Table 4, including
//!   the six combined Random-Fill TLB patterns of Section 5.3.1;
//! - [`extended`] — the Appendix B evaluation: targeted-invalidation
//!   attacks against every design, plus the region-flush countermeasure
//!   this reproduction adds;
//! - [`report`] — assembling and rendering the Table 4 comparison.
//!
//! # Example
//!
//! ```
//! use sectlb_secbench::run::{run_vulnerability, TrialSettings};
//! use sectlb_sim::machine::TlbDesign;
//!
//! let vuln = sectlb_model::enumerate_vulnerabilities()[0];
//! let mut settings = TrialSettings::default();
//! settings.trials = 50; // keep the doctest fast
//! let m = run_vulnerability(&vuln, TlbDesign::Sa, &settings);
//! // The first Table 2 row is an Internal Collision, which the SA TLB
//! // does not defend: the channel capacity is maximal.
//! assert!(m.capacity() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod channel;
pub mod checkpoint;
pub mod extended;
pub mod generate;
pub mod iofault;
pub mod mitigations;
pub mod oracle;
pub mod report;
pub mod resilience;
pub mod run;
pub mod scheduler;
pub mod spec;
pub mod supervisor;
pub mod telemetry;
pub mod theory;

pub use capacity::binary_channel_capacity;
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, Record, RecoveredLoad};
pub use iofault::{IoFault, IoFaultKind, IoInjector};
pub use oracle::{OracleConfig, OracleSummary, SuspectCell, EXIT_SUSPECT};
pub use resilience::{
    measure_cells_resilient, run_sharded_resilient, CampaignError, FaultPlan, PoolStats,
    ResilientRun, RunPolicy, ShardFailure, ShardOutcome, WorkerStats, EXIT_QUARANTINED,
};
pub use run::{derive_trial_seed, run_vulnerability, Measurement, TrialCell, TrialSettings};
pub use scheduler::{Claim, StealQueues};
pub use spec::BenchmarkSpec;
pub use supervisor::{BudgetPolicy, StopReason, Supervisor, EXIT_BUDGET};
pub use telemetry::{Envelope, Event, PhaseTimings, Telemetry, SCHEMA_VERSION};
