//! Ablation: is the random-fill eviction choice load-bearing?
//!
//! The paper's Section 5.3.1 probabilities imply random fills displace a
//! uniformly random way of their target set. A seemingly equivalent
//! implementation that evicts the set's *LRU* way instead re-correlates
//! eviction with the victim's access recency — and reopens a channel.
//! This binary measures the channel capacity of every Table 2 row on the
//! RF TLB under both policies.
//!
//! Usage: `ablation_rf [--trials N] [--workers N|auto] [--checkpoint
//! PATH] [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! The 24×2 sweep runs on the campaign engine, one shard per
//! vulnerability row (both evictions).

use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_model::enumerate_vulnerabilities;
use sectlb_secbench::oracle;
use sectlb_secbench::run::{run_vulnerability, TrialSettings};
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::RandomFillEviction;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown(&args, &["--trials"], &[]);
    let trials = cli::trials_flag(&args, 300);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    let oracle = cli::oracle_flags(&args, &policy, "ablation_rf");
    let mut obs = Observability::from_args("ablation_rf", &args, &policy);
    println!("RF TLB random-fill eviction ablation ({trials} trials per placement)\n");
    println!(
        "{:<48} {:>12} {:>12}",
        "vulnerability", "C* random-way", "C* LRU-way"
    );
    let vulns = enumerate_vulnerabilities();
    let measure = |v, eviction| {
        let settings = TrialSettings {
            trials,
            rf_eviction: eviction,
            oracle,
            ..TrialSettings::default()
        };
        run_vulnerability(v, TlbDesign::Rf, &settings).capacity()
    };
    // One engine task per vulnerability row, in print order.
    let tasks: Vec<usize> = (0..vulns.len()).collect();
    obs.campaign_begin();
    let outcome = campaign::run_campaign(
        "ablation_rf",
        [u64::from(trials)],
        &tasks,
        workers,
        &policy,
        obs.telemetry(),
        &|&i: &usize| format!("{} on RF TLB, both evictions", vulns[i]),
        |&i: &usize| {
            (
                measure(&vulns[i], RandomFillEviction::RandomWay),
                measure(&vulns[i], RandomFillEviction::LruWay),
            )
        },
    );
    obs.campaign_end();
    let capacities: Vec<Result<(f64, f64), &'static str>> = outcome
        .results
        .iter()
        .map(|r| r.as_result().copied())
        .collect();
    outcome.eprint_summary(campaign::reports_pool(workers, &policy));
    let summary = oracle::conclude("ablation_rf", Path::new("repro"));
    render(&vulns, &capacities, &summary);
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

fn render(
    vulns: &[sectlb_model::Vulnerability],
    capacities: &[Result<(f64, f64), &'static str>],
    summary: &oracle::OracleSummary,
) {
    let mut leaks = 0;
    for (v, caps) in vulns.iter().zip(capacities) {
        let name = format!("{} ({})", v.pattern, v.timing);
        // The eviction policy is not part of the oracle context, so a
        // violation marks the whole row (both columns) SUSPECT.
        if summary.affects(&[&v.to_string()]) {
            println!("{name:<48} {:>12} {:>12}", "SUSPECT", "SUSPECT");
            continue;
        }
        match caps {
            Ok((random_way, lru_way)) => {
                let marker = if *lru_way > 0.05 && *random_way <= 0.05 {
                    leaks += 1;
                    "  <-- LRU-way eviction leaks"
                } else {
                    ""
                };
                println!("{name:<48} {random_way:>12.3} {lru_way:>12.3}{marker}");
            }
            Err(gap) => println!("{name:<48} {gap:>12} {gap:>12}"),
        }
    }
    println!(
        "\n{leaks} vulnerability type(s) become exploitable when random fills \
         evict the LRU way instead of a random way."
    );
    println!("Conclusion: the uniformly random eviction is load-bearing for the");
    println!("RF TLB's security argument, not an implementation detail.");
}
