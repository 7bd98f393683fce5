//! A copied, reseeded machine is a fresh machine.
//!
//! The security campaigns build each cell's machine once and run every
//! trial on `template.clone()` followed by `Machine::reseed(seed)`; a
//! seed-free machine (`Machine::is_seed_free`) runs each placement once
//! per shard. These tests pin both shortcuts against the straightforward
//! construction:
//!
//! - for random builder configurations (every design, the reference
//!   path, L2 and I-TLB levels of any design, both flush policies, SP
//!   splits, RF eviction and invalidation variants, oracle on or off), a
//!   reseeded copy of a template and a fresh build with the same seed
//!   run a random program to bitwise-identical executor counters, TLB
//!   counters at every level, counter reads, TLB contents and oracle
//!   violations;
//! - `run_trial_range` equals a loop that builds a fresh machine for
//!   every trial, written here from public APIs only;
//! - every machine that reports itself seed-free produces identical
//!   counter traces under two different seeds on all 24 vulnerabilities
//!   and both placements, and every configuration with a random-fill
//!   engine anywhere reports that it is not seed-free.

use proptest::prelude::*;
use secure_tlbs::model::{enumerate_vulnerabilities, Vulnerability};
use secure_tlbs::secbench::generate::generate_program;
use secure_tlbs::secbench::oracle::OracleConfig;
use secure_tlbs::secbench::run::{
    derive_trial_seed, run_trial_range, Measurement, TrialCell, TrialSettings,
};
use secure_tlbs::secbench::spec::{BenchmarkSpec, Placement};
use secure_tlbs::sim::cpu::{ExecStats, Instr};
use secure_tlbs::sim::machine::{Machine, MachineBuilder, TlbDesign};
use secure_tlbs::sim::os::FlushPolicy;
use secure_tlbs::sim::shadow::drain_suspects_with_prefix;
use secure_tlbs::sim::OracleViolation;
use secure_tlbs::tlb::check::{CorruptionKind, SnapshotEntry};
use secure_tlbs::tlb::stats::TlbStats;
use secure_tlbs::tlb::types::{Asid, SecureRegion, Vpn};
use secure_tlbs::tlb::{InvalidationPolicy, RandomFillEviction, TlbConfig};

const BASE: u64 = 0x100;
const CODE: u64 = 0x500;

/// One point of the builder's configuration space.
#[derive(Debug, Clone, Copy)]
struct Config {
    design: TlbDesign,
    fully_associative: bool,
    reference: bool,
    l2: Option<TlbDesign>,
    itlb: Option<TlbDesign>,
    flush_on_switch: bool,
    sp_victim_ways: Option<usize>,
    lru_eviction: bool,
    region_flush: bool,
    oracle: bool,
}

impl Config {
    fn builder(self, seed: u64) -> MachineBuilder {
        let l1 = if self.fully_associative {
            TlbConfig::fa(32)
        } else {
            TlbConfig::sa(32, 8)
        };
        let mut b = MachineBuilder::new()
            .design(self.design)
            .tlb_config(l1.expect("valid"))
            .seed(seed)
            .reference_path(self.reference)
            .flush_policy(if self.flush_on_switch {
                FlushPolicy::FlushOnSwitch
            } else {
                FlushPolicy::None
            })
            .rf_eviction(if self.lru_eviction {
                RandomFillEviction::LruWay
            } else {
                RandomFillEviction::RandomWay
            })
            .rf_invalidation(if self.region_flush {
                InvalidationPolicy::RegionFlush
            } else {
                InvalidationPolicy::Precise
            })
            .oracle(self.oracle);
        if let Some(ways) = self.sp_victim_ways {
            b = b.sp_victim_ways(ways);
        }
        if let Some(d) = self.l2 {
            b = b.l2(d, TlbConfig::sa(64, 8).expect("valid"), 8);
        }
        if let Some(d) = self.itlb {
            b = b.itlb(d, TlbConfig::sa(16, 8).expect("valid"));
        }
        b
    }

    /// Builds the machine with seed `seed` and sets up two processes, a
    /// secure data region and a secure code region.
    fn build(self, seed: u64) -> (Machine, [Asid; 2]) {
        let mut m = self.builder(seed).build();
        let a = m.os_mut().create_process();
        let b = m.os_mut().create_process();
        for asid in [a, b] {
            m.os_mut().map_region(asid, Vpn(BASE), 24).expect("fresh");
            m.os_mut().map_region(asid, Vpn(CODE), 4).expect("fresh");
        }
        m.protect_victim(a, SecureRegion::new(Vpn(BASE), 3))
            .expect("fresh");
        m.protect_victim_code(a, SecureRegion::new(Vpn(CODE), 2))
            .expect("fresh");
        (m, [a, b])
    }
}

fn design(ix: u8) -> TlbDesign {
    TlbDesign::EXTENDED[usize::from(ix)]
}

fn maybe_design(ix: u8) -> Option<TlbDesign> {
    TlbDesign::EXTENDED.get(usize::from(ix)).copied()
}

fn config_strategy() -> impl Strategy<Value = Config> {
    (
        (0u8..6, any::<bool>(), any::<bool>(), 0u8..8),
        (0u8..8, any::<bool>(), 0usize..8, any::<bool>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (d, fully_associative, reference, l2),
                (itlb, flush_on_switch, ways, lru_eviction),
                (region_flush, oracle),
            )| Config {
                design: design(d),
                fully_associative,
                reference,
                l2: maybe_design(l2),
                itlb: maybe_design(itlb),
                flush_on_switch,
                sp_victim_ways: (ways > 0).then_some(ways),
                lru_eviction,
                region_flush,
                oracle,
            },
        )
}

/// One randomized operation: the differential suites' data-side ops plus
/// code-page jumps (for the I-TLB), compute bursts and counter reads.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load { asid_ix: u8, page: u8 },
    Store { asid_ix: u8, page: u8 },
    FlushAll,
    FlushAsid { asid_ix: u8 },
    FlushPage { asid_ix: u8, page: u8 },
    Switch { asid_ix: u8 },
    Jump { asid_ix: u8, page: u8 },
    Compute,
    ReadCounter,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| Op::Load { asid_ix, page }),
        2 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| Op::Store { asid_ix, page }),
        1 => (0u8..1).prop_map(|_| Op::FlushAll),
        1 => (0u8..2).prop_map(|asid_ix| Op::FlushAsid { asid_ix }),
        1 => (0u8..2, 0u8..24).prop_map(|(asid_ix, page)| Op::FlushPage { asid_ix, page }),
        2 => (0u8..2).prop_map(|asid_ix| Op::Switch { asid_ix }),
        2 => (0u8..2, 0u8..4).prop_map(|(asid_ix, page)| Op::Jump { asid_ix, page }),
        1 => (0u8..1).prop_map(|_| Op::Compute),
        1 => (0u8..1).prop_map(|_| Op::ReadCounter),
    ]
}

fn program(ops: &[Op], asids: &[Asid; 2]) -> Vec<Instr> {
    let data = |page: u8| Vpn(BASE + u64::from(page)).base_addr();
    ops.iter()
        .flat_map(|&op| match op {
            Op::Load { asid_ix, page } => {
                vec![
                    Instr::SetAsid(asids[usize::from(asid_ix)]),
                    Instr::Load(data(page)),
                ]
            }
            Op::Store { asid_ix, page } => {
                vec![
                    Instr::SetAsid(asids[usize::from(asid_ix)]),
                    Instr::Store(data(page)),
                ]
            }
            Op::FlushAll => vec![Instr::FlushAll],
            Op::FlushAsid { asid_ix } => vec![Instr::FlushAsid(asids[usize::from(asid_ix)])],
            Op::FlushPage { asid_ix, page } => vec![
                Instr::SetAsid(asids[usize::from(asid_ix)]),
                Instr::FlushPage(data(page)),
            ],
            Op::Switch { asid_ix } => vec![Instr::SetAsid(asids[usize::from(asid_ix)])],
            Op::Jump { asid_ix, page } => vec![
                Instr::SetAsid(asids[usize::from(asid_ix)]),
                Instr::JumpTo(Vpn(CODE + u64::from(page)).base_addr()),
                Instr::Compute(2),
            ],
            Op::Compute => vec![Instr::Compute(3)],
            Op::ReadCounter => vec![Instr::ReadMissCounter],
        })
        .collect()
}

/// Everything a trial could observe about a machine after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    exec: ExecStats,
    l1: TlbStats,
    l2: Option<TlbStats>,
    itlb: Option<TlbStats>,
    contents: Vec<SnapshotEntry>,
    itlb_contents: Option<Vec<SnapshotEntry>>,
    violations: Vec<OracleViolation>,
}

fn observe(m: &Machine) -> Observed {
    Observed {
        exec: m.stats().clone(),
        l1: *m.tlb_stats(),
        l2: m.tlb().level_stats(1).copied(),
        itlb: m.itlb().map(|t| *t.stats()),
        contents: m.tlb().snapshot(),
        itlb_contents: m.itlb().map(|t| t.snapshot()),
        violations: m.oracle_violations().to_vec(),
    }
}

/// Runs `ops` on a reseeded copy of a template built with
/// `template_seed`, and on a fresh build with `seed`.
fn copy_and_fresh(config: Config, template_seed: u64, seed: u64, ops: &[Op]) -> [Observed; 2] {
    let (template, asids) = config.build(template_seed);
    let mut copy = template.clone();
    copy.reseed(seed);
    let (mut fresh, fresh_asids) = config.build(seed);
    assert_eq!(asids, fresh_asids, "process creation is deterministic");
    let program = program(ops, &asids);
    copy.run_batch(&program);
    fresh.run_batch(&program);
    [observe(&copy), observe(&fresh)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The headline property: a reseeded copy of a template is
    /// indistinguishable from a fresh build with the same seed.
    #[test]
    fn a_reseeded_copy_equals_a_fresh_build(
        config in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..100),
        template_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let [copy, fresh] = copy_and_fresh(config, template_seed, seed, &ops);
        prop_assert_eq!(&copy, &fresh, "config {:?}", config);
        // A seed-free machine is one with no random-fill engine at any
        // level, and it runs identically under the template's seed.
        let random_fill = [Some(config.design), config.l2, config.itlb]
            .contains(&Some(TlbDesign::Rf));
        prop_assert_eq!(config.build(seed).0.is_seed_free(), !random_fill);
        if !random_fill {
            let [_, other_seed] = copy_and_fresh(config, seed, template_seed, &ops);
            prop_assert_eq!(fresh, other_seed, "config {:?}", config);
        }
    }
}

/// The configurations that put a random-fill engine at each level, run
/// deterministically so they are covered whatever the proptest draws.
fn random_fill_configs() -> Vec<Config> {
    let base = Config {
        design: TlbDesign::Sa,
        fully_associative: false,
        reference: false,
        l2: None,
        itlb: None,
        flush_on_switch: false,
        sp_victim_ways: None,
        lru_eviction: false,
        region_flush: false,
        oracle: true,
    };
    let mut configs = Vec::new();
    for reference in [false, true] {
        configs.extend([
            Config {
                design: TlbDesign::Rf,
                reference,
                lru_eviction: true,
                region_flush: true,
                ..base
            },
            Config {
                l2: Some(TlbDesign::Rf),
                reference,
                ..base
            },
            Config {
                itlb: Some(TlbDesign::Rf),
                reference,
                flush_on_switch: true,
                ..base
            },
            Config {
                design: TlbDesign::Rf,
                l2: Some(TlbDesign::Rf),
                itlb: Some(TlbDesign::Rf),
                reference,
                ..base
            },
        ]);
    }
    configs
}

/// Enough secure-region traffic that every random-fill engine draws.
fn secure_traffic() -> Vec<Op> {
    let mut ops = Vec::new();
    for round in 0..6u8 {
        for page in 0..6u8 {
            ops.push(Op::Load {
                asid_ix: round % 2,
                page: page * 5 % 24,
            });
            ops.push(Op::Jump {
                asid_ix: 0,
                page: (round + page) % 4,
            });
        }
        ops.push(Op::ReadCounter);
    }
    ops
}

#[test]
fn reseeding_reaches_every_random_fill_engine() {
    let ops = secure_traffic();
    for config in random_fill_configs() {
        let [copy, fresh] = copy_and_fresh(config, 1, 0xfeed, &ops);
        assert_eq!(copy, fresh, "config {config:?}");
        // The seed matters on these machines, so the equality above is
        // not vacuous: the unreseeded template behaves differently.
        let [unreseeded, _] = copy_and_fresh(config, 1, 1, &ops);
        assert_ne!(unreseeded, fresh, "config {config:?}: seed had no effect");
    }
}

#[test]
fn reseed_rewrites_the_oracle_setup_seed() {
    // A corrupted run on each machine submits a capture that records the
    // machine's setup — seed included. The copy's must equal the fresh
    // build's.
    const TAG: &str = "trial-template-oracle-seed|";
    let config = random_fill_configs()[3];
    let run = |mut m: Machine, asids: [Asid; 2], label: &str| {
        m.set_oracle_context(format!("{TAG}{label}"));
        assert!(m.schedule_corruption(6, 3, CorruptionKind::Ppn));
        m.run_batch(&program(&secure_traffic(), &asids));
        assert!(!m.oracle_violations().is_empty(), "corruption was caught");
    };
    let (template, asids) = config.build(1);
    let mut copy = template.clone();
    copy.reseed(0xfeed);
    run(copy, asids, "copy");
    let (fresh, asids) = config.build(0xfeed);
    run(fresh, asids, "fresh");
    let reports = drain_suspects_with_prefix(TAG);
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].capture.setup.seed, 0xfeed);
    assert_eq!(reports[0].capture, reports[1].capture);
}

// ---------------------------------------------------------------------
// Campaign level: `run_trial_range` against a fresh machine per trial.

/// A per-cell machine hook, as the campaign drivers pass them.
type Hook = fn(MachineBuilder) -> MachineBuilder;

/// The hooks exercised below: the survey's flush policy and FA
/// geometry, an SP split, and random-fill engines at the L2 and I-TLB.
fn hooks() -> Vec<(&'static str, Hook)> {
    vec![
        ("plain", |b| b),
        ("flush on switch", |b| {
            b.flush_policy(FlushPolicy::FlushOnSwitch)
        }),
        ("fully associative", |b| {
            b.tlb_config(TlbConfig::fa(32).expect("valid"))
        }),
        ("SP 3 victim ways", |b| b.sp_victim_ways(3)),
        ("RF L2", |b| {
            b.l2(TlbDesign::Rf, TlbConfig::sa(64, 8).expect("valid"), 8)
        }),
        ("RF I-TLB", |b| {
            b.itlb(TlbDesign::Rf, TlbConfig::sa(16, 8).expect("valid"))
        }),
    ]
}

/// Builds the machine of one trial the way the paper describes it: a
/// fresh machine with the trial's seed, the victim's secure region, and
/// both actors' conflict, in-range and filler pages.
fn fresh_trial_machine(
    spec: &BenchmarkSpec,
    design: TlbDesign,
    settings: &TrialSettings,
    seed: u64,
    hook: &dyn Fn(MachineBuilder) -> MachineBuilder,
) -> Machine {
    let builder = MachineBuilder::new()
        .design(design)
        .tlb_config(spec.config)
        .seed(seed)
        .rf_eviction(settings.rf_eviction);
    let mut m = hook(builder).build();
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    m.protect_victim(victim, spec.region)
        .expect("fresh machine");
    for asid in [victim, attacker] {
        m.os_mut().map_region(asid, spec.dbase, 64).expect("fresh");
        m.os_mut()
            .map_region(asid, spec.region.base, spec.region.pages)
            .ok();
        m.os_mut().map_page(asid, spec.filler).expect("fresh");
    }
    m
}

/// The reference trial loop: a fresh machine per trial, armed by the
/// oracle configuration the same way a campaign arms it.
fn fresh_build_per_trial(
    v: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
    range: std::ops::Range<u32>,
    hook: Hook,
) -> Measurement {
    let spec = BenchmarkSpec::build_with_config(v, design, settings.config);
    let mut misses = [0u32; 2];
    for t in range.clone() {
        for (count, placement) in misses
            .iter_mut()
            .zip([Placement::Mapped, Placement::NotMapped])
        {
            let seed = derive_trial_seed(settings.base_seed, v, design, placement, t);
            let oracle = settings.oracle.filter(|o| o.armed(seed));
            let mut m = fresh_trial_machine(&spec, design, settings, seed, &|b| {
                let b = hook(b);
                if oracle.is_some() {
                    b.oracle(true)
                } else {
                    b
                }
            });
            if let Some(o) = oracle {
                m.set_oracle_context(format!("{}|{v}|{design}|{placement:?}|{seed:#x}", o.tag));
                if let Some((op_index, selector, kind)) = o.corruption(seed) {
                    m.schedule_corruption(op_index, selector, kind);
                }
            }
            m.run_batch(&generate_program(&spec, placement));
            let reads = &m.stats().counter_reads;
            if reads[1] > reads[0] {
                *count += 1;
            }
        }
    }
    Measurement {
        trials: range.len() as u32,
        n_mapped_miss: misses[0],
        n_not_mapped_miss: misses[1],
    }
}

#[test]
fn run_trial_range_equals_a_fresh_build_per_trial() {
    let settings = TrialSettings::default();
    let vulnerabilities = enumerate_vulnerabilities();
    for (name, hook) in hooks() {
        for design in TlbDesign::EXTENDED {
            // Every row on the plain machine; every fifth under a hook.
            let step = if name == "plain" { 1 } else { 5 };
            for v in vulnerabilities.iter().step_by(step) {
                let cell = TrialCell::new(v, design, settings.config);
                let range = 7..12;
                assert_eq!(
                    run_trial_range(&cell, &settings, range.clone(), &hook),
                    fresh_build_per_trial(v, design, &settings, range, hook),
                    "{v} on {design} ({name})"
                );
            }
        }
    }
}

#[test]
fn oracle_armed_trials_match_a_fresh_build_per_trial() {
    // Sampled and corrupted trials take the armed template; their
    // measurements and the captures they submit must match fresh
    // machines armed the same way.
    const TAG: &str = "trial-template-shard";
    let settings = TrialSettings {
        oracle: Some(OracleConfig {
            rate_per_mille: 500,
            corrupt_per_mille: 150,
            seed: 3,
            tag: TAG,
        }),
        ..TrialSettings::default()
    };
    // Unarmed trials run with the oracle explicitly off (debug builds
    // default it on), so only the armed template can catch anything.
    let oracle_off: Hook = |b| b.oracle(false);
    let prefix = format!("{TAG}|");
    drain_suspects_with_prefix(&prefix);
    let mut copies = Vec::new();
    let mut fresh = Vec::new();
    for design in [TlbDesign::Sa, TlbDesign::Rf, TlbDesign::Ft] {
        for v in enumerate_vulnerabilities().iter().step_by(6) {
            let cell = TrialCell::new(v, design, settings.config);
            let copied = run_trial_range(&cell, &settings, 0..6, &oracle_off);
            copies.extend(drain_suspects_with_prefix(&prefix));
            let built = fresh_build_per_trial(v, design, &settings, 0..6, oracle_off);
            fresh.extend(drain_suspects_with_prefix(&prefix));
            assert_eq!(copied, built, "{v} on {design}");
        }
    }
    assert!(!copies.is_empty(), "some trials were corrupted and caught");
    let key = |r: &secure_tlbs::sim::shadow::SuspectReport| (r.context.clone(), r.capture.clone());
    assert_eq!(
        copies.iter().map(key).collect::<Vec<_>>(),
        fresh.iter().map(key).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// The seed-free predicate.

#[test]
fn seed_free_machines_give_identical_counter_traces_under_any_seed() {
    let settings = TrialSettings::default();
    for (name, hook) in hooks() {
        for design in TlbDesign::EXTENDED {
            let random_fill = design == TlbDesign::Rf || name.starts_with("RF");
            for v in enumerate_vulnerabilities() {
                let spec = BenchmarkSpec::build_with_config(&v, design, settings.config);
                for placement in [Placement::Mapped, Placement::NotMapped] {
                    let mut a = fresh_trial_machine(&spec, design, &settings, 1, &hook);
                    let mut b = fresh_trial_machine(&spec, design, &settings, 0x5eed, &hook);
                    assert_eq!(a.is_seed_free(), !random_fill, "{v} on {design} ({name})");
                    if !a.is_seed_free() {
                        continue;
                    }
                    let program = generate_program(&spec, placement);
                    a.run_batch(&program);
                    b.run_batch(&program);
                    assert_eq!(
                        observe(&a),
                        observe(&b),
                        "{v} on {design} ({name}, {placement:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn random_fill_anywhere_is_not_seed_free() {
    for config in random_fill_configs() {
        assert!(!config.build(7).0.is_seed_free(), "{config:?}");
    }
    // Without any random-fill engine, every level combination is.
    for d in TlbDesign::EXTENDED
        .into_iter()
        .filter(|&d| d != TlbDesign::Rf)
    {
        for reference in [false, true] {
            let config = Config {
                design: d,
                l2: Some(d),
                itlb: Some(d),
                reference,
                ..random_fill_configs()[0]
            };
            assert!(config.build(7).0.is_seed_free(), "{config:?}");
        }
    }
}
