//! The shadow oracle: a reference model run in lockstep with the machine.
//!
//! The TLB designs of this reproduction are *state machines whose outputs
//! the security campaigns trust blindly*: a silently wrong translation or
//! a partition leak would not crash anything — it would quietly corrupt
//! every derived table. The shadow oracle closes that gap. When enabled
//! (the default in debug builds, opt-in via `--oracle` in release
//! campaigns), [`crate::Machine`] checks, on every executed instruction,
//! that the TLB's observable behavior agrees with a pure re-derivation
//! from the page tables and the design's documented semantics:
//!
//! - **Translation** — a non-faulting access returns exactly the PPN the
//!   process's page table maps, and faults only when no mapping exists;
//! - **HitSoundness** — a reported hit was preceded by a resident L1
//!   entry matching `(asid, vpn)`;
//! - **Capacity** — every resident entry sits in the set its tag indexes,
//!   megapage tags are 512-page aligned, and no `(asid, vpn, size)` is
//!   duplicated;
//! - **Partition** — SP entries never cross the victim/attacker way split;
//! - **SecBit** — the *Sec* bit agrees with the programmed secure region
//!   (and is never set on SA/SP);
//! - **NoFill** — an RF miss inside the secure region is answered through
//!   the no-fill buffer;
//! - **FlushCompleteness** — flush instructions remove everything they
//!   promise to remove;
//! - **Provenance** — operations that must not touch the TLB leave its
//!   contents bit-identical;
//! - **ClassIsolation** — the MS design keeps every entry in the entry
//!   class matching its page size;
//! - **ClearCompleteness** — the temporal designs (`FS`, `FT`) leave no
//!   entry behind after a context switch, and `FT` additionally leaves
//!   no replacement residue.
//!
//! A violation never panics. It is recorded as a structured
//! [`OracleViolation`], and — when the machine was given a reporting
//! context by a campaign driver — the full machine configuration, address-
//! space image, and operation trace are captured as a [`TraceCapture`] and
//! submitted to a process-wide sink, from which `secbench` drains them,
//! shrinks the trace to a minimal reproduction, and writes `repro/*.ron`
//! files that [`replay`] re-executes deterministically.
//!
//! # Replay determinism
//!
//! [`TraceCapture`] does not store physical frame numbers; it relies on
//! the simulator's bump [`crate::FrameAllocator`]: every `map` call
//! allocates the mapping's data frame *before* any intermediate
//! page-table-node frames, so data PPNs strictly increase in map-call
//! order. Dumping all leaf mappings at violation time sorted by PPN
//! therefore recovers the chronological map order, and replaying those
//! maps (after creating the same number of processes) reproduces the
//! identical frame assignment. Pre-mapping everything also makes the
//! walker's auto-map a no-op during replay, which is what lets the
//! shrinker drop operations without perturbing any translation. The one
//! construct that would break this — unmapping a page mid-run — is not
//! used by any campaign driver and is not supported in captures.

use std::sync::Mutex;

use sectlb_tlb::check::CorruptionKind;
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{Asid, PageSize, SecureRegion, Vpn};
use sectlb_tlb::{InvalidationPolicy, RandomFillEviction};

use crate::cpu::Instr;
use crate::machine::{Machine, MachineBuilder, TlbDesign};
use crate::os::FlushPolicy;
use crate::walker::WalkerConfig;

/// The invariants the shadow oracle checks on every executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Returned PPNs agree with a pure page-table walk; faults occur
    /// exactly when no mapping exists.
    Translation,
    /// A reported hit was backed by a resident matching L1 entry.
    HitSoundness,
    /// Set indexing, megapage alignment, and duplicate freedom.
    Capacity,
    /// SP entries stay on their side of the victim/attacker way split.
    Partition,
    /// The *Sec* bit agrees with the programmed secure region.
    SecBit,
    /// RF secure-region misses are answered through the no-fill buffer.
    NoFill,
    /// Flushes remove everything they promise to remove.
    FlushCompleteness,
    /// Operations that must not touch the TLB leave it bit-identical.
    Provenance,
    /// MS entries live in the entry class matching their page size.
    ClassIsolation,
    /// Temporal-partitioning designs leave no entries behind after a
    /// context switch (`FT` additionally no replacement residue).
    ClearCompleteness,
}

impl Invariant {
    /// All checked invariants, in documentation order.
    pub const ALL: [Invariant; 10] = [
        Invariant::Translation,
        Invariant::HitSoundness,
        Invariant::Capacity,
        Invariant::Partition,
        Invariant::SecBit,
        Invariant::NoFill,
        Invariant::FlushCompleteness,
        Invariant::Provenance,
        Invariant::ClassIsolation,
        Invariant::ClearCompleteness,
    ];

    /// Stable machine-readable name (used in repro files).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Translation => "translation",
            Invariant::HitSoundness => "hit-soundness",
            Invariant::Capacity => "capacity",
            Invariant::Partition => "partition",
            Invariant::SecBit => "sec-bit",
            Invariant::NoFill => "no-fill",
            Invariant::FlushCompleteness => "flush-completeness",
            Invariant::Provenance => "provenance",
            Invariant::ClassIsolation => "class-isolation",
            Invariant::ClearCompleteness => "clear-completeness",
        }
    }

    /// Parses [`Invariant::name`] output back.
    pub fn from_name(name: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|i| i.name() == name)
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured report of one oracle check failing: which design, at
/// which point of the trace, which invariant, and the expected-vs-actual
/// evidence. Never a panic — campaign drivers render these as SUSPECT
/// cells and keep running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Short name of the TLB design under check (`SA`, `SP`, `RF`).
    pub design: String,
    /// Index into the machine's recorded [`TraceOp`] sequence at which
    /// the check failed.
    pub op_index: usize,
    /// The violated invariant.
    pub invariant: Invariant,
    /// What the reference model required.
    pub expected: String,
    /// What the TLB actually did.
    pub actual: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] op {}: {} invariant violated — expected {}; actual: {}",
            self.design, self.op_index, self.invariant, self.expected, self.actual
        )
    }
}

/// One step of a machine's recorded operation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// An executed instruction.
    Exec(Instr),
    /// A deterministic fault injection: corrupt one resident TLB entry.
    Corrupt {
        /// Selects which eligible entry is corrupted (modulo their count).
        selector: u64,
        /// Which field of the entry is flipped.
        kind: CorruptionKind,
    },
}

/// A corruption scheduled to fire once at least `op_index` instructions
/// have executed (retrying on later instructions while the TLB is empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCorruption {
    /// Executed-instruction count at which to attempt the corruption.
    pub op_index: u64,
    /// Selects which eligible entry is corrupted (modulo their count).
    pub selector: u64,
    /// Which field of the entry is flipped.
    pub kind: CorruptionKind,
}

/// Everything [`MachineBuilder`] was told, captured so a machine can be
/// rebuilt identically during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSetup {
    /// The L1 D-TLB design.
    pub design: TlbDesign,
    /// L1 D-TLB total entries.
    pub entries: usize,
    /// L1 D-TLB ways per set.
    pub ways: usize,
    /// RFE seed.
    pub seed: u64,
    /// Context-switch TLB policy.
    pub flush_policy: FlushPolicy,
    /// Fixed context-switch cost in cycles.
    pub switch_cost: u64,
    /// Page-table walker cycles per level.
    pub cycles_per_level: u64,
    /// RF random-fill eviction policy.
    pub rf_eviction: RandomFillEviction,
    /// RF secure-page invalidation policy.
    pub rf_invalidation: InvalidationPolicy,
    /// SP victim-partition way override.
    pub sp_victim_ways: Option<usize>,
    /// L2 TLB as `(design, entries, ways, latency)`, if configured.
    pub l2: Option<(TlbDesign, usize, usize, u64)>,
    /// I-TLB as `(design, entries, ways)`, if configured.
    pub itlb: Option<(TlbDesign, usize, usize)>,
}

/// A self-contained, replayable image of a machine run that ended in an
/// oracle violation: the builder configuration, the address-space image
/// (in frame-allocation order — see the module docs on determinism), the
/// protection calls, the operation trace, and the violation itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCapture {
    /// The machine configuration.
    pub setup: MachineSetup,
    /// Number of processes to create (ASIDs are assigned 1..=processes).
    pub processes: u16,
    /// Every leaf mapping of every process, sorted by physical frame
    /// number — i.e. in the original allocation order.
    pub maps: Vec<(Asid, Vpn, PageSize)>,
    /// `protect_victim` / `protect_victim_code` calls, in order; the
    /// `bool` marks a code (I-TLB) protection.
    pub protects: Vec<(Asid, SecureRegion, bool)>,
    /// The recorded operation trace up to and including the violating op.
    pub ops: Vec<TraceOp>,
    /// The violation this capture reproduces.
    pub violation: OracleViolation,
}

/// A capture tagged with the campaign context ("driver|cell|…") that
/// produced it, as drained from the process-wide suspect sink.
#[derive(Debug, Clone)]
pub struct SuspectReport {
    /// The reporting context the driver installed via
    /// [`Machine::set_oracle_context`].
    pub context: String,
    /// The replayable capture.
    pub capture: TraceCapture,
}

/// The per-machine oracle state (the machine holds one when the oracle is
/// enabled). The checking logic lives in `machine.rs`, next to the state
/// it inspects.
#[derive(Debug, Clone)]
pub(crate) struct Oracle {
    pub(crate) setup: MachineSetup,
    pub(crate) context: Option<String>,
    pub(crate) ops: Vec<TraceOp>,
    pub(crate) exec_count: u64,
    pub(crate) planned: Option<PlannedCorruption>,
    pub(crate) protects: Vec<(Asid, SecureRegion, bool)>,
    pub(crate) violations: Vec<OracleViolation>,
    pub(crate) tainted: bool,
}

impl Oracle {
    pub(crate) fn new(setup: MachineSetup) -> Oracle {
        Oracle {
            setup,
            context: None,
            ops: Vec::new(),
            exec_count: 0,
            planned: None,
            protects: Vec::new(),
            violations: Vec::new(),
            tainted: false,
        }
    }
}

/// Process-wide sink of suspect reports. Campaign trials run on worker
/// threads whose return types cannot carry captures without breaking the
/// bitwise-deterministic result contract; the sink lets any machine
/// submit and the driver drain afterwards, keyed by context prefix.
static SINK: Mutex<Vec<SuspectReport>> = Mutex::new(Vec::new());

/// Bound on retained reports: one campaign can corrupt many cells, but
/// past a few the captures are redundant.
const SINK_CAP: usize = 256;

pub(crate) fn submit_suspect(report: SuspectReport) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if sink.len() < SINK_CAP {
        sink.push(report);
    }
}

/// Removes and returns every sunk report whose context starts with
/// `prefix` (drivers pass their own name so concurrent tests do not steal
/// each other's reports). Order of submission is preserved.
pub fn drain_suspects_with_prefix(prefix: &str) -> Vec<SuspectReport> {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    let mut i = 0;
    while i < sink.len() {
        if sink[i].context.starts_with(prefix) {
            out.push(sink.remove(i));
        } else {
            i += 1;
        }
    }
    out
}

fn build_from_setup(setup: &MachineSetup) -> Option<Machine> {
    let config = TlbConfig::sa(setup.entries, setup.ways).ok()?;
    let mut b = MachineBuilder::new()
        .design(setup.design)
        .tlb_config(config)
        .seed(setup.seed)
        .flush_policy(setup.flush_policy)
        .switch_cost(setup.switch_cost)
        .walker(WalkerConfig {
            cycles_per_level: setup.cycles_per_level,
        })
        .rf_eviction(setup.rf_eviction)
        .rf_invalidation(setup.rf_invalidation)
        .oracle(true);
    if let Some(w) = setup.sp_victim_ways {
        b = b.sp_victim_ways(w);
    }
    if let Some((design, entries, ways, latency)) = setup.l2 {
        b = b.l2(design, TlbConfig::sa(entries, ways).ok()?, latency);
    }
    if let Some((design, entries, ways)) = setup.itlb {
        b = b.itlb(design, TlbConfig::sa(entries, ways).ok()?);
    }
    Some(b.build())
}

/// Deterministically re-executes a capture with the oracle forced on and
/// returns the first violation it reproduces (`None` when the capture no
/// longer violates anything — e.g. after the shrinker dropped a
/// load-bearing op, or when the setup is not buildable).
pub fn replay(capture: &TraceCapture) -> Option<OracleViolation> {
    let mut m = build_from_setup(&capture.setup)?;
    for _ in 0..capture.processes {
        m.os_mut().create_process();
    }
    for &(asid, vpn, size) in &capture.maps {
        match size {
            PageSize::Base => m.os_mut().map_page(asid, vpn).ok()?,
            PageSize::Mega => m.os_mut().map_mega_page(asid, vpn).ok()?,
            PageSize::Giga => m.os_mut().map_giga_page(asid, vpn).ok()?,
        }
    }
    for &(asid, region, is_code) in &capture.protects {
        if is_code {
            m.protect_victim_code(asid, region).ok()?;
        } else {
            m.protect_victim(asid, region).ok()?;
        }
    }
    for op in &capture.ops {
        match *op {
            TraceOp::Exec(instr) => m.exec(instr),
            TraceOp::Corrupt { selector, kind } => {
                m.inject_corruption_now(selector, kind);
            }
        }
        if let Some(v) = m.oracle_violations().first() {
            return Some(v.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_tlb::types::Ppn;

    fn driven_machine(design: TlbDesign) -> Machine {
        let mut m = MachineBuilder::new().design(design).oracle(true).build();
        let v = m.os_mut().create_process();
        let a = m.os_mut().create_process();
        m.protect_victim(v, SecureRegion::new(Vpn(0x100), 3))
            .expect("victim exists");
        m.os_mut().map_region(v, Vpn(0x10), 8).expect("mappable");
        m.os_mut().map_region(a, Vpn(0x10), 8).expect("mappable");
        m
    }

    fn mixed_program(v: Asid, a: Asid) -> Vec<Instr> {
        let mut p = vec![Instr::SetAsid(v)];
        for i in 0..8u64 {
            p.push(Instr::Load((0x10 + i) << 12));
            p.push(Instr::Load(0x100_000 + (i % 3) * 0x1000));
        }
        p.push(Instr::FlushPage(0x12_000));
        p.push(Instr::SetAsid(a));
        for i in 0..8u64 {
            p.push(Instr::Store((0x10 + i) << 12));
        }
        p.push(Instr::FlushAsid(a));
        p.push(Instr::SetAsid(v));
        p.push(Instr::ReadMissCounter);
        p.push(Instr::FlushAll);
        p
    }

    #[test]
    fn clean_runs_raise_no_violations_on_any_design() {
        for design in TlbDesign::EXTENDED {
            let mut m = driven_machine(design);
            let program = mixed_program(Asid(1), Asid(2));
            m.run(&program);
            assert_eq!(
                m.oracle_violations(),
                &[],
                "{design} flagged a legitimate run"
            );
        }
    }

    #[test]
    fn ms_corruption_replays_across_page_size_classes() {
        // Exercises the multi-size machine under the oracle with all
        // three page sizes mapped, and the capture/replay path's mega and
        // giga arms.
        let giga_base = sectlb_tlb::types::PageSize::Giga.span_pages();
        for selector in [0u64, 3, 11] {
            let mut m = MachineBuilder::new()
                .design(TlbDesign::Ms)
                .oracle(true)
                .build();
            let p = m.os_mut().create_process();
            m.os_mut().map_region(p, Vpn(0x10), 4).expect("mappable");
            m.os_mut().map_mega_page(p, Vpn(0x1000)).expect("mappable");
            m.os_mut()
                .map_giga_page(p, Vpn(giga_base))
                .expect("mappable");
            m.set_oracle_context(format!("shadow-ms-{selector}|cell"));
            m.run(&[
                Instr::SetAsid(p),
                Instr::Load(0x10_000),
                Instr::Load(0x1000 << 12),
                Instr::Load(giga_base << 12),
            ]);
            assert_eq!(m.oracle_violations(), &[], "clean multi-size run");
            assert!(m.inject_corruption_now(selector, CorruptionKind::Ppn));
            let reports = drain_suspects_with_prefix(&format!("shadow-ms-{selector}"));
            assert_eq!(reports.len(), 1, "selector {selector}");
            let capture = &reports[0].capture;
            assert_eq!(replay(capture), Some(capture.violation.clone()));
        }
    }

    #[test]
    fn temporal_designs_clear_on_switch_under_oracle() {
        // A real switch on FS/FT empties the TLB and satisfies the
        // ClearCompleteness check.
        for design in [TlbDesign::Fs, TlbDesign::Ft] {
            let mut m = driven_machine(design);
            m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x10_000)]);
            assert!(m.tlb().probe(Asid(1), Vpn(0x10)));
            m.exec(Instr::SetAsid(Asid(2)));
            assert_eq!(m.oracle_violations(), &[], "{design}: clean switch");
            assert!(
                !m.tlb().probe(Asid(1), Vpn(0x10)),
                "{design}: the switch cleared the entry"
            );
        }
    }

    #[test]
    fn corruption_is_detected_and_replayable() {
        for kind in CorruptionKind::ALL {
            let mut m = driven_machine(TlbDesign::Sa);
            m.set_oracle_context(format!("shadow-test-{kind}|cell"));
            m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x10_000)]);
            assert!(m.inject_corruption_now(7, kind), "entry was resident");
            let violations = m.oracle_violations();
            assert_eq!(violations.len(), 1, "kind {kind}: {violations:?}");
            let reports = drain_suspects_with_prefix(&format!("shadow-test-{kind}"));
            assert_eq!(reports.len(), 1);
            let capture = &reports[0].capture;
            assert!(matches!(capture.ops.last(), Some(TraceOp::Corrupt { .. })));
            let replayed = replay(capture).expect("replay reproduces");
            assert_eq!(replayed, capture.violation, "kind {kind}");
        }
    }

    #[test]
    fn corruption_on_empty_tlb_reports_nothing() {
        let mut m = driven_machine(TlbDesign::Sa);
        assert!(!m.inject_corruption_now(0, CorruptionKind::Ppn));
        assert_eq!(m.oracle_violations(), &[]);
    }

    #[test]
    fn scheduled_corruption_fires_at_the_requested_op() {
        let mut m = driven_machine(TlbDesign::Rf);
        m.set_oracle_context("shadow-sched|cell");
        assert!(m.schedule_corruption(3, 11, CorruptionKind::Ppn));
        let program = mixed_program(Asid(1), Asid(2));
        m.run(&program);
        assert_eq!(m.oracle_violations().len(), 1);
        let reports = drain_suspects_with_prefix("shadow-sched");
        assert_eq!(reports.len(), 1);
        let capture = &reports[0].capture;
        let corrupt_at = capture
            .ops
            .iter()
            .position(|op| matches!(op, TraceOp::Corrupt { .. }))
            .expect("trace records the injection");
        assert!(corrupt_at >= 3, "fires only once 3 instructions ran");
        assert_eq!(replay(capture), Some(capture.violation.clone()));
    }

    #[test]
    fn direct_register_fiddling_taints_the_oracle() {
        let mut m = driven_machine(TlbDesign::Rf);
        m.set_oracle_context("shadow-taint|cell");
        m.tlb_mut().set_victim_asid(Some(Asid(9)));
        m.run(&[Instr::SetAsid(Asid(1)), Instr::Load(0x100_000)]);
        assert!(!m.inject_corruption_now(0, CorruptionKind::Ppn));
        assert_eq!(m.oracle_violations(), &[]);
        assert!(drain_suspects_with_prefix("shadow-taint").is_empty());
    }

    #[test]
    fn replay_is_deterministic_about_frame_assignment() {
        // The determinism contract the whole repro pipeline rests on: the
        // capture records no PPNs, yet replay must regenerate the same
        // address-space image. Compare a run's page tables against its
        // replayed capture via a corruption-triggered capture.
        let mut m = driven_machine(TlbDesign::Sa);
        m.set_oracle_context("shadow-frames|cell");
        let mut program = mixed_program(Asid(1), Asid(2));
        program.pop(); // keep the trailing FlushAll from emptying the TLB
        m.run(&program);
        assert!(m.inject_corruption_now(0, CorruptionKind::Ppn));
        let reports = drain_suspects_with_prefix("shadow-frames");
        let capture = &reports[0].capture;
        // Replaying twice yields the identical violation (including the
        // PPNs embedded in its expected/actual strings).
        assert_eq!(replay(capture), replay(capture));
        assert_eq!(replay(capture), Some(capture.violation.clone()));
    }

    #[test]
    fn hierarchy_and_itlb_machines_stay_clean_under_oracle() {
        let mut m = MachineBuilder::new()
            .design(TlbDesign::Rf)
            .l2(TlbDesign::Sa, TlbConfig::sa(64, 4).expect("valid"), 8)
            .itlb(TlbDesign::Sa, TlbConfig::sa(8, 4).expect("valid"))
            .oracle(true)
            .build();
        let v = m.os_mut().create_process();
        m.protect_victim(v, SecureRegion::new(Vpn(0x100), 3))
            .expect("victim exists");
        m.os_mut().map_region(v, Vpn(0x10), 4).expect("mappable");
        m.os_mut().map_region(v, Vpn(0x500), 2).expect("mappable");
        m.run(&[Instr::SetAsid(v), Instr::JumpTo(0x500_000)]);
        for i in 0..6u64 {
            m.exec(Instr::Load((0x10 + (i % 4)) << 12));
            m.exec(Instr::Load(0x100_000 + (i % 3) * 0x1000));
        }
        m.run(&[Instr::FlushAll]);
        assert_eq!(m.oracle_violations(), &[]);
    }

    #[test]
    fn invariant_names_roundtrip() {
        for i in Invariant::ALL {
            assert_eq!(Invariant::from_name(i.name()), Some(i));
        }
        assert_eq!(Invariant::from_name("nonsense"), None);
    }

    #[test]
    fn violation_display_is_structured() {
        let v = OracleViolation {
            design: "SA".into(),
            op_index: 4,
            invariant: Invariant::Translation,
            expected: "ppn:0x5".into(),
            actual: "ppn:0x6".into(),
        };
        let s = v.to_string();
        assert!(s.contains("[SA] op 4"), "{s}");
        assert!(s.contains("translation"), "{s}");
        let _ = Ppn(0); // keep the import exercised alongside Display
    }
}
