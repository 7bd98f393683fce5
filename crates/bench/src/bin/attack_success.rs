//! End-to-end TLBleed-style Prime + Probe attack against the RSA victim
//! on each TLB design (Sections 2.2 and 5.1). Prints the fraction of
//! secret exponent bits recovered.
//!
//! Usage: `attack_success [--seeds N] [--workers N|auto] [--checkpoint
//! PATH] [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! `--seeds N` (default 5) is the number of attack runs per design; a
//! missing, malformed or zero value exits 2.
//!
//! Each (design, seed) run is an independent deterministic simulation,
//! so the per-design accuracies are identical for every worker count —
//! and identical across any kill/checkpoint/resume interleaving, which
//! the CI fault-injection smoke job exercises on this driver.
//!
//! `--oracle[=RATE]` runs the shadow oracle in lockstep with the sampled
//! runs, and `--inject-corruption[=PM]` deterministically flips a TLB
//! entry mid-attack so the oracle has something to catch: the affected
//! design renders SUSPECT, a shrunk repro lands in `repro/`, and the
//! process exits with [`sectlb_secbench::oracle::EXIT_SUSPECT`]. The CI
//! oracle smoke job exercises exactly that path on this driver.

use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::oracle;
use sectlb_secbench::resilience::ShardOutcome;
use sectlb_sim::machine::TlbDesign;
use sectlb_workloads::attack::{prime_probe_attack, AttackSettings};
use sectlb_workloads::rsa::RsaKey;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown(&args, &["--seeds"], &[]);
    let seeds = cli::seeds_flag(&args, 5);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    let oracle = cli::oracle_flags(&args, &policy, "attack_success");
    let mut obs = Observability::from_args("attack_success", &args, &policy);
    let key = RsaKey::demo_128();
    println!("TLBleed-style Prime + Probe key recovery ({seeds} runs per design)");
    println!("secret: {}-bit exponent", key.secret_bits().len());
    let runs: Vec<(TlbDesign, u64)> = TlbDesign::ALL
        .into_iter()
        .flat_map(|d| (0..seeds).map(move |s| (d, s)))
        .collect();
    let run_one = |&(design, s): &(TlbDesign, u64)| {
        let seed = 0xa77ac4 ^ s;
        let mut settings = AttackSettings {
            seed,
            ..AttackSettings::default()
        };
        if let Some(o) = oracle.filter(|o| o.armed(seed)) {
            settings.oracle_tag = Some(o.tag);
            settings.corruption = o.corruption(seed);
        }
        prime_probe_attack(&key, design, &settings).accuracy()
    };
    obs.campaign_begin();
    let outcome = campaign::run_campaign(
        "attack_success",
        [seeds],
        &runs,
        workers,
        &policy,
        obs.telemetry(),
        &|&(design, s)| format!("{design} TLB, seed {s}"),
        run_one,
    );
    obs.campaign_end();
    let summary = oracle::conclude("attack_success", Path::new("repro"));
    for (i, design) in TlbDesign::ALL.into_iter().enumerate() {
        let lo = i * seeds as usize;
        let slice = &outcome.results[lo..lo + seeds as usize];
        let completed: Vec<f64> = slice.iter().filter_map(|r| r.done().copied()).collect();
        if summary.affects(&[&design.to_string()]) {
            println!("  {design} TLB: SUSPECT (shadow-oracle violation)");
        } else if let Some(Err(marker)) = ShardOutcome::worst(slice).map(ShardOutcome::as_result) {
            println!(
                "  {} TLB: {} ({} of {} runs completed)",
                design,
                marker,
                completed.len(),
                slice.len()
            );
        } else {
            println!(
                "  {} TLB: {:.1}% of key bits recovered",
                design,
                completed.iter().sum::<f64>() / seeds as f64 * 100.0
            );
        }
    }
    println!("(50% is chance level: the attacker learns nothing)");
    outcome.eprint_summary(campaign::reports_pool(workers, &policy));
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}
