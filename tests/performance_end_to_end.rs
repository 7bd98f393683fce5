//! End-to-end performance shape checks against Sections 6.3–6.5, plus
//! the hot-path throughput floor pinned by `BENCH_core.json`.

use secure_tlbs::secbench::report::build_table4;
use secure_tlbs::secbench::resilience::RunPolicy;
use secure_tlbs::secbench::run::TrialSettings;
use secure_tlbs::secbench::telemetry::Telemetry;
use secure_tlbs::sim::cpu::Instr;
use secure_tlbs::sim::machine::{MachineBuilder, TlbDesign};
use secure_tlbs::sim::sched::{run_round_robin, Program};
use secure_tlbs::tlb::types::Vpn;
use secure_tlbs::tlb::TlbConfig;
use secure_tlbs::workloads::rsa::{decryption_program, encrypt, RsaKey, RsaLayout};
use secure_tlbs::workloads::spec_like::SpecBenchmark;

/// Runs SecRSA co-scheduled with a SPEC-like benchmark; returns
/// `(ipc, mpki)`.
fn co_run(design: TlbDesign, config: TlbConfig, bench: SpecBenchmark) -> (f64, f64) {
    let key = RsaKey::demo_128();
    let layout = RsaLayout::new();
    let mut m = MachineBuilder::new()
        .design(design)
        .tlb_config(config)
        .build();
    let rsa = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut().map_page(rsa, page).expect("fresh machine");
    }
    m.protect_victim(rsa, layout.secure_region())
        .expect("fresh");
    let c = encrypt(&key, &[0xabcdu64]);
    let rsa_prog = decryption_program(&key, &c, layout, 3);
    let spec = m.os_mut().create_process();
    m.os_mut()
        .map_region(spec, Vpn(0x10_000), bench.footprint_pages())
        .expect("fresh");
    let spec_prog = bench.trace(Vpn(0x10_000), rsa_prog.len() / 3, 11);
    run_round_robin(
        &mut m,
        &[Program::new(rsa, rsa_prog), Program::new(spec, spec_prog)],
        200,
    );
    (m.ipc().expect("ran"), m.mpki().expect("ran"))
}

#[test]
fn sp_pays_a_large_mpki_penalty_and_rf_a_small_one() {
    // Paper: SP ≈ 3.07x the SA MPKI; RF ≈ 9% more than SA and ~64% less
    // than SP. We assert the ordering and rough factors.
    let cfg = TlbConfig::sa(32, 4).unwrap();
    let (_, sa) = co_run(TlbDesign::Sa, cfg, SpecBenchmark::Povray);
    let (_, sp) = co_run(TlbDesign::Sp, cfg, SpecBenchmark::Povray);
    let (_, rf) = co_run(TlbDesign::Rf, cfg, SpecBenchmark::Povray);
    assert!(
        sp > sa * 1.5,
        "SP {sp:.2} vs SA {sa:.2}: expected a big penalty"
    );
    assert!(
        rf < sp * 0.75,
        "RF {rf:.2} vs SP {sp:.2}: RF should be far cheaper"
    );
    assert!(
        rf < sa * 2.0,
        "RF {rf:.2} vs SA {sa:.2}: RF should be close to SA"
    );
}

#[test]
fn bigger_tlbs_help_every_design() {
    for design in TlbDesign::ALL {
        let (_, small) = co_run(
            design,
            TlbConfig::sa(32, 4).unwrap(),
            SpecBenchmark::Omnetpp,
        );
        let (_, large) = co_run(
            design,
            TlbConfig::sa(128, 4).unwrap(),
            SpecBenchmark::Omnetpp,
        );
        assert!(
            large < small,
            "{design}: 128-entry MPKI {large:.2} should beat 32-entry {small:.2}"
        );
    }
}

#[test]
fn one_entry_tlb_approximates_disabling_the_tlb() {
    // Paper Section 6.3: the 1E configuration costs ~38% IPC.
    let key = RsaKey::demo_128();
    let layout = RsaLayout::new();
    let run = |config| {
        let mut m = MachineBuilder::new()
            .design(TlbDesign::Sa)
            .tlb_config(config)
            .build();
        let p = m.os_mut().create_process();
        for page in layout.all_pages() {
            m.os_mut().map_page(p, page).expect("fresh");
        }
        let c = encrypt(&key, &[0x77u64]);
        m.exec(Instr::SetAsid(p));
        m.run(&decryption_program(&key, &c, layout, 2));
        m.ipc().expect("ran")
    };
    let one = run(TlbConfig::single_entry());
    let full = run(TlbConfig::sa(32, 4).unwrap());
    let ratio = one / full;
    assert!(
        ratio < 0.75,
        "1E should lose a large fraction of IPC, got ratio {ratio:.2}"
    );
}

/// Regression floor for the simulator's hot-path throughput.
///
/// `BENCH_core.json` (regenerated by `scripts/scalability.sh`) records
/// the trial-pair throughput of the table4 campaign on one worker. This
/// test re-measures a scaled-down campaign through the same engine and
/// fails if it lands below a tolerance band of the committed number —
/// catching a hot-path regression (dyn dispatch creeping back, per-access
/// allocation, LRU bookkeeping bloat) without flaking on machine noise.
///
/// Skipped in debug builds (the floor describes `--release` codegen) and
/// under `CI_NOPERF=1` (shared/throttled CI runners).
#[test]
fn core_throughput_stays_above_the_committed_floor() {
    if cfg!(debug_assertions) {
        eprintln!("skipping: throughput floor is calibrated for release builds");
        return;
    }
    if std::env::var_os("CI_NOPERF").is_some() {
        eprintln!("skipping: CI_NOPERF set");
        return;
    }
    // The committed baseline is hand-auditable JSON; pull the one number
    // we pin without a serde dependency.
    let baseline = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_core.json"))
        .expect("BENCH_core.json committed at the repo root");
    let committed: f64 = baseline
        .split("\"throughput_pairs_per_s\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .expect("BENCH_core.json has throughput_pairs_per_s");

    // A 50-trial campaign on one worker: the same engine, cells, and
    // shard schedule as the committed run, ~3600 trial pairs, well under
    // a second. Warm up once so lazy init doesn't bill the timed run.
    let settings = TrialSettings {
        trials: 50,
        ..TrialSettings::default()
    };
    let campaign = |settings: &TrialSettings| {
        build_table4(
            &TlbDesign::ALL,
            settings,
            std::num::NonZeroUsize::MIN,
            &RunPolicy::default(),
            &Telemetry::disabled(),
        )
        .expect("clean campaign")
    };
    campaign(&TrialSettings {
        trials: 5,
        ..settings
    });
    let start = std::time::Instant::now();
    campaign(&settings);
    let elapsed = start.elapsed().as_secs_f64();
    let pairs = f64::from(settings.trials) * 24.0 * 3.0;
    let measured = pairs / elapsed;

    // 0.4x band: generous against scheduler noise and the smaller run's
    // fixed costs, tight enough that losing the SoA fast path (a ~4x
    // cliff back to the pre-overhaul baseline) always trips it.
    let floor = committed * 0.4;
    assert!(
        measured >= floor,
        "hot-path throughput regressed: measured {measured:.0} pairs/s < floor \
         {floor:.0} (committed baseline {committed:.0}); if this is an intentional \
         trade-off, regenerate the baseline with scripts/scalability.sh"
    );
}

#[test]
fn fa_tlb_never_misses_more_than_sa_of_equal_size() {
    // Section 6.3: FA TLBs have better performance than SA configurations.
    let (_, fa) = co_run(
        TlbDesign::Sa,
        TlbConfig::fa(32).unwrap(),
        SpecBenchmark::Povray,
    );
    let (_, sa) = co_run(
        TlbDesign::Sa,
        TlbConfig::sa(32, 2).unwrap(),
        SpecBenchmark::Povray,
    );
    assert!(fa <= sa * 1.05, "FA {fa:.2} vs 2W {sa:.2}");
}
