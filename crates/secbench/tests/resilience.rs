//! Integration tests of the fault-tolerant campaign engine.
//!
//! The acceptance contract: a campaign that is killed mid-run and resumed
//! from its checkpoint produces **bitwise-identical** results to an
//! uninterrupted run; injected panics converge to the clean results after
//! deterministic retry; shards that keep failing are quarantined with
//! their coordinates and never silently dropped.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use sectlb_model::{enumerate_vulnerabilities, Vulnerability};
use sectlb_secbench::report::{build_table4, CampaignReport};
use sectlb_secbench::resilience::{
    measure_cells_resilient, CampaignError, CellOutcome, FaultPlan, RunPolicy,
};
use sectlb_secbench::run::{run_vulnerability, Measurement, TrialSettings};
use sectlb_secbench::telemetry::Telemetry;
use sectlb_secbench::CheckpointPolicy;
use sectlb_sim::machine::TlbDesign;

fn cells() -> Vec<(Vulnerability, TlbDesign)> {
    let vulns = enumerate_vulnerabilities();
    [vulns[0], vulns[12]]
        .into_iter()
        .flat_map(|v| TlbDesign::ALL.map(|d| (v, d)))
        .collect()
}

fn settings() -> TrialSettings {
    TrialSettings {
        trials: 30,
        ..TrialSettings::default()
    }
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(3).expect("nonzero")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sectlb-resilience-{}-{name}", std::process::id()));
    p
}

fn off() -> Telemetry {
    Telemetry::disabled()
}

fn table4(settings: &TrialSettings, workers: NonZeroUsize, policy: &RunPolicy) -> CampaignReport {
    build_table4(&TlbDesign::ALL, settings, workers, policy, None, &off())
        .expect("campaign completes")
}

fn measurements(outcomes: &[CellOutcome]) -> Vec<Measurement> {
    outcomes
        .iter()
        .map(|c| c.measurement().expect("cell measured"))
        .collect()
}

#[test]
fn resilient_engine_matches_the_reference_loop_bitwise() {
    let cells = cells();
    let settings = settings();
    let plain: Vec<Measurement> = cells
        .iter()
        .map(|(v, d)| run_vulnerability(v, *d, &settings))
        .collect();
    let resilient = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &RunPolicy::default(),
        &off(),
        &|b| b,
    )
    .expect("clean campaign");
    assert_eq!(measurements(&resilient.cells), plain);
    assert_eq!(resilient.stats.quarantined, 0);
    assert_eq!(resilient.resumed, 0);
}

#[test]
fn kill_and_resume_is_bitwise_identical_to_uninterrupted() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("kill-resume");
    let reference = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &RunPolicy::default(),
        &off(),
        &|b| b,
    )
    .expect("uninterrupted campaign");

    // Deterministic "kill -9": halt after 5 completed shards, with the
    // checkpoint keeping progress crash-safe.
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.clone(),
            every: 2,
        }),
        stop_after: Some(5),
        ..RunPolicy::default()
    };
    let err = measure_cells_resilient(&cells, &settings, workers(), &killed, &off(), &|b| b)
        .expect_err("interrupted");
    match &err {
        CampaignError::Interrupted {
            completed,
            total,
            checkpoint,
        } => {
            assert!(*completed >= 5, "at least the kill threshold completed");
            assert!(completed < total, "the campaign did not finish");
            assert_eq!(checkpoint.as_deref(), Some(path.as_path()));
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 3);

    // Resume from the checkpoint; the merged campaign must be bitwise
    // identical to the uninterrupted reference.
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &resumed_policy,
        &off(),
        &|b| b,
    )
    .expect("resumed campaign completes");
    assert!(resumed.resumed >= 5, "checkpointed shards were skipped");
    assert_eq!(measurements(&resumed.cells), measurements(&reference.cells));
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_kills_then_resume_still_converge() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("double-kill");
    let reference = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &RunPolicy::default(),
        &off(),
        &|b| b,
    )
    .expect("uninterrupted campaign");

    // Two successive kills, each resuming the previous checkpoint; a
    // different worker count per phase, which must not matter.
    let mut resume: Option<PathBuf> = None;
    for (kill_after, phase_workers) in [(3, 1), (4, 4)] {
        let policy = RunPolicy {
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every: 1,
            }),
            resume: resume.clone(),
            stop_after: Some(kill_after),
            ..RunPolicy::default()
        };
        let w = NonZeroUsize::new(phase_workers).expect("nonzero");
        measure_cells_resilient(&cells, &settings, w, &policy, &off(), &|b| b)
            .expect_err("phase interrupted");
        resume = Some(path.clone());
    }
    let final_policy = RunPolicy {
        resume: resume.clone(),
        ..RunPolicy::default()
    };
    let finished =
        measure_cells_resilient(&cells, &settings, workers(), &final_policy, &off(), &|b| b)
            .expect("final phase completes");
    assert!(finished.resumed >= 3);
    assert_eq!(
        measurements(&finished.cells),
        measurements(&reference.cells)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_checkpoint_from_different_settings_is_rejected() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("mismatch");
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy::new(path.clone())),
        stop_after: Some(2),
        ..RunPolicy::default()
    };
    measure_cells_resilient(&cells, &settings, workers(), &killed, &off(), &|b| b)
        .expect_err("interrupted");

    // Same cells, different base seed: the fingerprint must not match.
    let other_settings = TrialSettings {
        base_seed: settings.base_seed ^ 0xff,
        ..settings
    };
    let resume = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let err = measure_cells_resilient(&cells, &other_settings, workers(), &resume, &off(), &|b| b)
        .expect_err("stale checkpoint rejected");
    assert!(matches!(&err, CampaignError::Checkpoint(_)), "got {err:?}");
    assert_eq!(err.exit_code(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_transient_panics_converge_after_retry() {
    let cells = cells();
    let settings = settings();
    let reference = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &RunPolicy::default(),
        &off(),
        &|b| b,
    )
    .expect("clean campaign");
    let faulty = RunPolicy {
        faults: Some(FaultPlan {
            panic_per_mille: 400,
            panic_attempts: 2,
            ..FaultPlan::default()
        }),
        max_retries: 3,
        ..RunPolicy::default()
    };
    let run = measure_cells_resilient(&cells, &settings, workers(), &faulty, &off(), &|b| b)
        .expect("faulty campaign converges");
    assert!(run.stats.retried() > 0, "faults were actually injected");
    assert_eq!(run.stats.quarantined, 0, "retries absorbed every fault");
    assert_eq!(measurements(&run.cells), measurements(&reference.cells));
}

#[test]
fn permanent_faults_quarantine_cells_and_never_silently_drop_one() {
    let cells = cells();
    let settings = settings();
    // Half the shards fail permanently. The plan is deterministic, so
    // this pins concrete quarantined shards for the 12 shards of this
    // campaign (the default fault seed's rolls happen to sit high for
    // the first dozen indices — 40% would hit nothing).
    let plan = FaultPlan {
        fatal_per_mille: 500,
        ..FaultPlan::default()
    };
    let policy = RunPolicy {
        faults: Some(plan),
        max_retries: 1,
        ..RunPolicy::default()
    };
    let run = measure_cells_resilient(&cells, &settings, workers(), &policy, &off(), &|b| b)
        .expect("campaign completes despite permanent faults");
    // Every input cell is accounted for — measured or explicitly
    // quarantined with coordinates; quarantine is never a silent gap.
    assert_eq!(run.cells.len(), cells.len());
    let quarantined: Vec<_> = run
        .cells
        .iter()
        .zip(&cells)
        .filter_map(|(outcome, (v, d))| match outcome {
            CellOutcome::Quarantined { failure, .. } => Some((v, d, failure)),
            // No budget is configured, so Partial cannot appear.
            _ => None,
        })
        .collect();
    assert!(
        !quarantined.is_empty(),
        "a 50% fatal rate should hit at least one of the shards"
    );
    assert!(run.stats.quarantined > 0);
    for (v, d, failure) in &quarantined {
        assert!(failure.payload.contains("injected permanent fault"));
        assert!(
            failure.task.contains(&v.to_string()) && failure.task.contains(&d.to_string()),
            "quarantine report names the cell: {}",
            failure.task
        );
        assert_eq!(failure.attempts, 2, "one attempt + one retry");
    }
}

#[test]
fn build_table4_matches_across_worker_counts() {
    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let plain = table4(&settings, NonZeroUsize::MIN, &RunPolicy::default());
    let report = table4(&settings, workers(), &RunPolicy::default());
    assert_eq!(report.table, plain.table);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.exit_code(), 0);
    // A clean table renders byte-identically through the masked path.
    assert_eq!(report.render(), plain.table.render());
}

#[test]
fn quarantined_cells_render_as_quarantined_not_as_numbers() {
    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let policy = RunPolicy {
        faults: Some(FaultPlan {
            fatal_per_mille: 60,
            ..FaultPlan::default()
        }),
        max_retries: 0,
        ..RunPolicy::default()
    };
    let report = table4(&settings, workers(), &policy);
    assert!(
        !report.quarantined.is_empty(),
        "a 6% fatal rate over 72 shards should quarantine something"
    );
    let text = report.render();
    assert_eq!(
        text.matches("QUARANTINED").count(),
        // One masked table cell per quarantined cell (the detail lines
        // use the failure's own lowercase wording).
        report.quarantined.len(),
        "{text}"
    );
    assert!(text.contains("quarantined cell ["), "{text}");
    assert!(text.contains("quarantined and excluded"), "{text}");
    assert_eq!(report.exit_code(), sectlb_secbench::EXIT_QUARANTINED);
}
