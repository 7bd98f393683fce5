//! Property tests pinning the work-stealing scheduler's core contract:
//! stealing changes *which worker runs a shard and when*, never *what
//! the shard computes* — so the merged campaign output is bitwise
//! independent of the worker count and of any steal schedule the
//! thread timing happens to produce.
//!
//! Steals are forced, not hoped for: every case plants deterministic
//! sleeps on a random subset of tasks (skewing some workers' chunks),
//! the campaign case on real Table 4 trial ranges. Whatever the
//! schedule, workers ∈ {1, 2, 4, 8} must agree byte-for-byte with the
//! reference.

use std::num::NonZeroUsize;
use std::time::Duration;

use proptest::prelude::*;
use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::resilience::{run_sharded_resilient, RunPolicy};
use sectlb_secbench::run::{
    run_trial_range, run_vulnerability, Measurement, TrialCell, TrialSettings,
};
use sectlb_secbench::telemetry::Telemetry;
use sectlb_sim::machine::TlbDesign;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn nonzero(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("worker counts are nonzero")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The raw engine: per-task results land in task order regardless of
    /// the worker count, even when planted sleeps make fast workers
    /// drain their own deque and steal the slow workers' cold ends.
    #[test]
    fn stolen_shards_produce_the_same_results_as_owned_ones(
        tasks in 1usize..40,
        slow in proptest::collection::vec(any::<u64>(), 0..6),
        salt in any::<u64>(),
    ) {
        let inputs: Vec<u64> = (0..tasks as u64).collect();
        let slow: Vec<usize> = slow.iter().map(|&i| i as usize % tasks).collect();
        let reference: Vec<u64> = inputs
            .iter()
            .map(|&t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
            .collect();
        for workers in WORKER_COUNTS {
            let slow = slow.clone();
            let run = run_sharded_resilient(
                &inputs,
                nonzero(workers),
                &RunPolicy::default(),
                salt,
                &|t| format!("t{t}"),
                &Telemetry::disabled(),
                move |&t| {
                    if slow.contains(&(t as usize)) {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                    t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
                },
            )
            .expect("clean run");
            let results: Vec<u64> = run.results.iter().filter_map(|r| r.done().copied()).collect();
            prop_assert_eq!(&results, &reference, "{} workers diverged", workers);
            prop_assert_eq!(run.stats.shards(), tasks);
        }
    }

    /// The engine over real Table 4 trial ranges: per-cell
    /// measurements are bitwise identical across worker counts, and
    /// equal to the reference loop, while sleeps planted on a random
    /// subset of the two-trial shards skew the deques and force steals.
    #[test]
    fn campaign_measurements_are_bitwise_identical_across_worker_counts(
        vuln_index in 0usize..24,
        slow_per_mille in 100u64..=600,
        salt in any::<u64>(),
    ) {
        let vulns = enumerate_vulnerabilities();
        let settings = TrialSettings {
            trials: 8,
            ..TrialSettings::default()
        };
        let cells: Vec<_> = [vulns[vuln_index], vulns[(vuln_index + 7) % 24]]
            .into_iter()
            .flat_map(|v| TlbDesign::ALL.map(|d| (v, d)))
            .collect();
        let prepared: Vec<TrialCell> = cells
            .iter()
            .map(|(v, d)| TrialCell::new(v, *d, settings.config))
            .collect();
        let reference: Vec<Measurement> = cells
            .iter()
            .map(|(v, d)| run_vulnerability(v, *d, &settings))
            .collect();
        // (cell, first trial) of every two-trial shard, in cell order.
        let shards: Vec<(usize, u32)> = (0..cells.len())
            .flat_map(|c| (0..settings.trials).step_by(2).map(move |lo| (c, lo)))
            .collect();
        let slow = |c: usize, lo: u32| {
            let key = ((c as u64) << 32 | u64::from(lo)) ^ salt;
            key.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 1000 < slow_per_mille
        };
        for workers in WORKER_COUNTS {
            let run = run_sharded_resilient(
                &shards,
                nonzero(workers),
                &RunPolicy::default(),
                salt,
                &|&(c, lo)| format!("cell {c}, trials {lo}.."),
                &Telemetry::disabled(),
                |&(c, lo)| {
                    if slow(c, lo) {
                        std::thread::sleep(Duration::from_millis(4));
                    }
                    run_trial_range(&prepared[c], &settings, lo..lo + 2, &|b| b)
                },
            )
            .expect("sleeps delay shards but never fail them");
            let mut measured = vec![Measurement::ZERO; cells.len()];
            for (&(c, _), result) in shards.iter().zip(&run.results) {
                measured[c] = measured[c].merge(*result.done().expect("every shard done"));
            }
            prop_assert_eq!(&measured, &reference, "{} workers diverged", workers);
        }
    }
}
