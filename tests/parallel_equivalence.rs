//! Worker-count equivalence of the Table 4 security campaign.
//!
//! The acceptance contract of the campaign engine: running the full
//! campaign with `workers = 1` or `workers = 4` produces field-for-field
//! identical tables, and every cell equals the plain single-cell
//! reference loop ([`run_vulnerability`]), because every trial's RFE seed
//! is a pure function of its coordinates and the shard merge is a plain
//! sum.

use std::num::NonZeroUsize;

use secure_tlbs::secbench::report::{build_table4, CampaignReport, Table4};
use secure_tlbs::secbench::resilience::RunPolicy;
use secure_tlbs::secbench::run::{run_vulnerability, TrialSettings};
use secure_tlbs::secbench::telemetry::Telemetry;
use secure_tlbs::sim::machine::TlbDesign;

const TRIALS: u32 = 50;

fn settings() -> TrialSettings {
    TrialSettings {
        trials: TRIALS,
        ..TrialSettings::default()
    }
}

fn campaign(workers: usize) -> CampaignReport {
    build_table4(
        &TlbDesign::ALL,
        &settings(),
        NonZeroUsize::new(workers).expect("nonzero"),
        &RunPolicy::default(),
        &Telemetry::disabled(),
    )
    .expect("clean campaign")
}

fn assert_identical(parallel: &Table4, serial: &Table4, workers: usize) {
    assert_eq!(parallel.trials, serial.trials, "workers={workers}");
    assert_eq!(parallel.rows.len(), serial.rows.len(), "workers={workers}");
    for (p, s) in parallel.rows.iter().zip(&serial.rows) {
        let row = s.vulnerability;
        assert_eq!(p.vulnerability, row, "workers={workers}");
        for (i, (pc, sc)) in p.cells.iter().zip(&s.cells).enumerate() {
            let at = format!("workers={workers}, row {row}, design column {i}");
            assert_eq!(pc.measured.trials, sc.measured.trials, "{at}");
            assert_eq!(pc.measured.n_mapped_miss, sc.measured.n_mapped_miss, "{at}");
            assert_eq!(
                pc.measured.n_not_mapped_miss, sc.measured.n_not_mapped_miss,
                "{at}"
            );
            assert_eq!(pc.theory, sc.theory, "{at}");
        }
    }
    // Belt and braces: whole-structure equality and identical rendering.
    assert_eq!(parallel, serial, "workers={workers}");
    assert_eq!(parallel.render(), serial.render(), "workers={workers}");
}

#[test]
fn table4_is_bitwise_identical_across_worker_counts() {
    let reference = campaign(1).table;
    assert_eq!(reference.rows.len(), 24);
    for row in &reference.rows {
        for (cell, design) in row.cells.iter().zip(TlbDesign::ALL) {
            assert_eq!(
                cell.measured,
                run_vulnerability(&row.vulnerability, design, &settings()),
                "{} on {design} differs from the reference loop",
                row.vulnerability
            );
        }
    }
    for workers in [1usize, 4] {
        let report = campaign(workers);
        assert_identical(&report.table, &reference, workers);
        let stats = report.run.stats;
        assert_eq!(
            stats.trials(),
            u64::from(TRIALS) * 24 * 3,
            "every trial accounted for exactly once"
        );
        assert!(stats.shards() >= 24 * 3, "each cell yields >= 1 shard");
    }
}
