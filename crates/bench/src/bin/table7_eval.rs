//! Security evaluation of the Appendix B (targeted invalidation) attacks
//! — an extension beyond the paper, which enumerates these
//! vulnerabilities (Table 7) but does not evaluate the secure designs
//! against them.
//!
//! Evaluates six representative Table 7 families on the SA TLB, the SP
//! TLB, the RF TLB as published (precise invalidation), and the RF TLB
//! with this reproduction's region-flush invalidation extension.
//!
//! Usage: `table7_eval [--trials N] [--workers N|auto] [--checkpoint
//! PATH] [--resume PATH] [--retries N] [--kill-after N] [--inject-* ...]
//! [--events PATH] [--metrics PATH]`
//!
//! The family × design grid runs on the campaign engine, one shard per
//! cell.

use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::extended::{extended_benchmarks, run_extended_oracle, ExtDesign};
use sectlb_secbench::oracle;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown(&args, &["--trials"], &[]);
    let trials = cli::trials_flag(&args, 500);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    let oracle_cfg = cli::oracle_flags(&args, &policy, "table7_eval");
    let mut obs = Observability::from_args("table7_eval", &args, &policy);
    println!("Appendix B attacks vs. the designs ({trials} trials per placement)");
    println!("channel capacity C*; 0 = defended\n");
    print!("{:<38} {:<30}", "family", "pattern");
    for d in ExtDesign::ALL {
        print!(" {:>18}", d.label());
    }
    println!();
    let benches = extended_benchmarks();
    // One engine task per (family, design) cell, row-major.
    let cells: Vec<(usize, ExtDesign)> = (0..benches.len())
        .flat_map(|b| ExtDesign::ALL.map(|d| (b, d)))
        .collect();
    obs.campaign_begin();
    let outcome = campaign::run_campaign(
        "table7_eval",
        [u64::from(trials)],
        &cells,
        workers,
        &policy,
        obs.telemetry(),
        &|&(b, d): &(usize, ExtDesign)| format!("{} on {}", benches[b].name, d.label()),
        |&(b, d): &(usize, ExtDesign)| run_extended_oracle(&benches[b], d, trials, oracle_cfg),
    );
    obs.campaign_end();
    let summary = oracle::conclude("table7_eval", Path::new("repro"));
    for (bi, bench) in benches.iter().enumerate() {
        print!("{:<38} {:<30}", bench.name, bench.pattern);
        for (di, d) in ExtDesign::ALL.into_iter().enumerate() {
            if summary.affects(&[bench.name, d.label()]) {
                print!(" {:>18}", "SUSPECT");
                continue;
            }
            let result = &outcome.results[bi * ExtDesign::ALL.len() + di];
            match result.as_result() {
                Ok(m) => print!(" {:>18.3}", m.capacity()),
                Err(marker) => print!(" {:>18}", marker),
            }
        }
        println!();
    }
    print_reading();
    outcome.eprint_summary(campaign::reports_pool(workers, &policy));
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

fn print_reading() {
    println!();
    println!("Reading: targeted invalidation breaks the SA and SP TLBs on the");
    println!("internal families; the published RF TLB still leaks partially");
    println!("(invalidations are deterministic even though fills are random);");
    println!("flushing the whole secure region on any secure invalidation, in");
    println!("constant time, restores C* = 0 across the board.");
}
