//! Acceptance tests of the fault-tolerant campaign engine, through the
//! public facade — the contract the drivers and CI smoke job rely on:
//!
//! 1. a Table 4 campaign killed mid-run and resumed from its checkpoint
//!    is **bitwise identical** to an uninterrupted run (same struct, same
//!    rendered text);
//! 2. injected worker panics either converge after deterministic retry
//!    or end in an explicit quarantine — never a silent abort and never
//!    a silently missing cell.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use secure_tlbs::secbench::checkpoint::CheckpointPolicy;
use secure_tlbs::secbench::report::{build_table4, CampaignReport};
use secure_tlbs::secbench::resilience::{CampaignError, FaultPlan, RunPolicy};
use secure_tlbs::secbench::run::{run_vulnerability, TrialSettings};
use secure_tlbs::secbench::telemetry::Telemetry;
use secure_tlbs::sim::machine::TlbDesign;

const TRIALS: u32 = 8;

fn settings() -> TrialSettings {
    TrialSettings {
        trials: TRIALS,
        ..TrialSettings::default()
    }
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(4).expect("nonzero")
}

/// The classic Table 4 campaign on the engine.
fn table4_campaign(
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
) -> Result<CampaignReport, CampaignError> {
    build_table4(
        &TlbDesign::ALL,
        settings,
        workers,
        policy,
        &Telemetry::disabled(),
    )
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sectlb-ft-{}-{name}", std::process::id()));
    p
}

#[test]
fn killed_and_resumed_table4_is_bitwise_identical() {
    let path = tmp_path("table4-kill-resume");
    let reference = table4_campaign(&settings(), workers(), &RunPolicy::default())
        .expect("uninterrupted campaign");
    assert!(reference.quarantined.is_empty());

    // Phase 1: checkpoint every 4 shards, halt after 20 of the 72.
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every: 4,
        }),
        stop_after: Some(20),
        ..RunPolicy::default()
    };
    let err = table4_campaign(&settings(), workers(), &killed).expect_err("campaign interrupted");
    assert!(matches!(err, CampaignError::Interrupted { .. }), "{err:?}");
    assert_eq!(err.exit_code(), 3);
    assert!(path.exists(), "final checkpoint written on interruption");

    // Phase 2: resume — with a different worker count, which must not
    // affect a single bit of the output.
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed = table4_campaign(
        &settings(),
        NonZeroUsize::new(2).expect("nz"),
        &resumed_policy,
    )
    .expect("resumed campaign completes");
    assert!(
        resumed.run.resumed >= 20,
        "checkpointed shards were skipped"
    );
    assert_eq!(resumed.table, reference.table, "resume diverged");
    assert_eq!(
        resumed.table.render(),
        reference.table.render(),
        "rendered output diverged"
    );
    std::fs::remove_file(&path).ok();
}

/// The serial reference — the plain single-cell loop behind
/// [`run_vulnerability`] — and the engine agree on every cell.
#[test]
fn serial_legacy_path_and_resilient_engine_agree() {
    let resilient =
        table4_campaign(&settings(), workers(), &RunPolicy::default()).expect("clean campaign");
    for row in &resilient.table.rows {
        for (cell, design) in row.cells.iter().zip(TlbDesign::ALL) {
            let plain = run_vulnerability(&row.vulnerability, design, &settings());
            assert_eq!(cell.measured, plain, "{} on {design}", row.vulnerability);
        }
    }
    let one = table4_campaign(&settings(), NonZeroUsize::MIN, &RunPolicy::default())
        .expect("clean campaign");
    assert_eq!(resilient.table.render(), one.table.render());
}

#[test]
fn injected_panics_retry_to_the_clean_table_or_quarantine_explicitly() {
    let reference =
        table4_campaign(&settings(), workers(), &RunPolicy::default()).expect("clean campaign");

    // Transient faults within the retry budget: must converge bitwise.
    let transient = RunPolicy {
        faults: Some(FaultPlan {
            panic_per_mille: 300,
            panic_attempts: 1,
            ..FaultPlan::default()
        }),
        max_retries: 2,
        ..RunPolicy::default()
    };
    let report =
        table4_campaign(&settings(), workers(), &transient).expect("transient faults converge");
    assert!(report.run.stats.retried() > 0, "faults were injected");
    assert!(report.quarantined.is_empty(), "all faults were absorbed");
    assert_eq!(report.table, reference.table);

    // Faults beyond any retry budget: explicit quarantine, never a
    // silent abort — the campaign completes, every cell is accounted
    // for, and the exit code flags the degradation.
    let fatal = RunPolicy {
        faults: Some(FaultPlan {
            fatal_per_mille: 100,
            ..FaultPlan::default()
        }),
        max_retries: 1,
        ..RunPolicy::default()
    };
    let degraded = table4_campaign(&settings(), workers(), &fatal)
        .expect("fatal faults quarantine instead of aborting");
    assert!(
        !degraded.quarantined.is_empty(),
        "something was quarantined"
    );
    assert_eq!(degraded.table.rows.len(), 24, "no row silently dropped");
    assert_eq!(
        degraded.run.exit_code(),
        secure_tlbs::secbench::EXIT_QUARANTINED
    );
    for q in &degraded.quarantined {
        assert!(
            q.failure.payload.contains("injected permanent fault"),
            "quarantine report carries the panic payload: {}",
            q.failure.payload
        );
        assert!(
            q.failure.task.contains("TLB"),
            "quarantine report names the cell coordinates: {}",
            q.failure.task
        );
    }
    let text = degraded.render();
    assert!(text.contains("QUARANTINED"), "{text}");
}
