//! Property tests for the campaign engine's algebra.
//!
//! Two facts make the engine deterministic: a shard is a pure function of
//! its trial-index range (seeds never depend on the sharding), and the
//! shard merge is a commutative sum. The first property splits a campaign
//! cell at arbitrary boundaries and checks the merged counts equal the
//! unsharded ones; the rest pin the channel-capacity formula's range and
//! symmetries for arbitrary probabilities.

use proptest::prelude::*;
use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::binary_channel_capacity;
use sectlb_secbench::run::{run_trial_range, Measurement, TrialCell, TrialSettings};
use sectlb_sim::machine::TlbDesign;

/// Trials per placement in the shard-split property; small because every
/// case runs the cell twice (whole and split).
const TOTAL: u32 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_shards_equal_the_unsharded_measurement(
        vuln_index in 0usize..24,
        design_index in 0usize..3,
        cuts in proptest::collection::vec(0u32..=TOTAL, 0..4),
    ) {
        let vulnerability = enumerate_vulnerabilities()[vuln_index];
        let design = TlbDesign::ALL[design_index];
        let settings = TrialSettings {
            trials: TOTAL,
            ..TrialSettings::default()
        };
        let cell = TrialCell::new(&vulnerability, design, settings.config);
        let whole = run_trial_range(&cell, &settings, 0..TOTAL, &|b| b);

        let mut bounds = cuts.clone();
        bounds.push(0);
        bounds.push(TOTAL);
        bounds.sort_unstable();
        let merged = bounds
            .windows(2)
            .map(|w| run_trial_range(&cell, &settings, w[0]..w[1], &|b| b))
            .fold(Measurement::ZERO, Measurement::merge);

        prop_assert_eq!(merged, whole, "split at {:?}", bounds);
    }

    #[test]
    fn capacity_stays_in_the_unit_interval(a in 0u32..=1000, b in 0u32..=1000) {
        let (p1, p2) = (f64::from(a) / 1000.0, f64::from(b) / 1000.0);
        let c = binary_channel_capacity(p1, p2);
        prop_assert!((0.0..=1.0).contains(&c), "C({p1}, {p2}) = {c}");
    }

    #[test]
    fn capacity_is_symmetric_in_its_arguments(a in 0u32..=1000, b in 0u32..=1000) {
        let (p1, p2) = (f64::from(a) / 1000.0, f64::from(b) / 1000.0);
        let forward = binary_channel_capacity(p1, p2);
        let backward = binary_channel_capacity(p2, p1);
        prop_assert!((forward - backward).abs() < 1e-12, "{forward} vs {backward}");
    }

    #[test]
    fn capacity_is_invariant_under_relabeling(a in 0u32..=1000, b in 0u32..=1000) {
        // Swapping the miss/hit labels cannot change the information.
        let (p1, p2) = (f64::from(a) / 1000.0, f64::from(b) / 1000.0);
        let original = binary_channel_capacity(p1, p2);
        let relabeled = binary_channel_capacity(1.0 - p1, 1.0 - p2);
        prop_assert!((original - relabeled).abs() < 1e-9, "{original} vs {relabeled}");
    }
}
