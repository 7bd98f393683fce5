//! In-memory span recording and per-layer self time.
//!
//! A span is one timed call into a layer: its name, start and end, the
//! span that was open when it began (its parent) and the replayed cell
//! it belongs to. Spans stay in memory while the replay runs and are
//! written out when it ends, so recording costs two clock reads and a
//! vector push.

use std::io::Write;
use std::time::Instant;

/// The span names: one per timed public call, plus the replay's own
/// per-cell parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `MachineBuilder::build`.
    SimBuild,
    /// `Os::create_process`, `map_region` and `map_page`.
    SimOsMap,
    /// `Machine::protect_victim`.
    SimProtect,
    /// `Machine::run_batch`, `run` or `exec` on one program.
    SimExecAlone,
    /// `sched::run_round_robin` over a co-scheduled pair.
    SimExecCorun,
    /// `BenchmarkSpec::build_with_config` and `generate::generate_program`.
    SecbenchGenerate,
    /// A secbench cell entry (`run_vulnerability*`, `run_mitigation`,
    /// `run_extended`).
    SecbenchCell,
    /// `rsa::encrypt` and `rsa::decryption_program`.
    WorkloadsRsa,
    /// `SpecBenchmark::trace`.
    WorkloadsSpecTrace,
    /// `perf::run_cell_with`, the body of `perf::run_cell`.
    BenchPerfCell,
    /// `perf::headline`.
    BenchHeadline,
    /// The replay of one cell: parent of the layer spans above.
    ReplayCell,
}

impl Name {
    /// Every name, in output order.
    pub const ALL: [Name; 12] = [
        Name::SimBuild,
        Name::SimOsMap,
        Name::SimProtect,
        Name::SimExecAlone,
        Name::SimExecCorun,
        Name::SecbenchGenerate,
        Name::SecbenchCell,
        Name::WorkloadsRsa,
        Name::WorkloadsSpecTrace,
        Name::BenchPerfCell,
        Name::BenchHeadline,
        Name::ReplayCell,
    ];

    /// The span's name as written out.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::SimBuild => "sim.build",
            Name::SimOsMap => "sim.os_map",
            Name::SimProtect => "sim.protect",
            Name::SimExecAlone => "sim.exec.alone",
            Name::SimExecCorun => "sim.exec.corun",
            Name::SecbenchGenerate => "secbench.generate",
            Name::SecbenchCell => "secbench.cell",
            Name::WorkloadsRsa => "workloads.rsa",
            Name::WorkloadsSpecTrace => "workloads.spec_trace",
            Name::BenchPerfCell => "bench.perf_cell",
            Name::BenchHeadline => "bench.headline",
            Name::ReplayCell => "replay.cell",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: Name,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The replayed cell the span belongs to.
    pub cell: u32,
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cell: u32,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "a begun span must be ended"]
pub struct Open(u32);

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Tags the spans begun from now on with cell `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: Name) -> Open {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(index);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: (parent != NO_PARENT).then_some(parent),
            cell: self.cell,
        });
        Open(index)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(span.0), "spans must nest");
        self.spans[span.0 as usize].end = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a tab-separated line:
    /// `name start_ns end_ns parent cell`, with `-` for no parent.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tcell")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name.as_str(),
                s.start,
                s.end,
                s.cell
            )?;
        }
        Ok(())
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations, in ns.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it that
    /// its direct children cover, in ns.
    pub self_ns: u64,
}

/// Per-name totals, indexed like [`Name::ALL`].
pub fn layer_times(spans: &[Span]) -> Vec<(Name, LayerTime)> {
    let covered = covered_by_children(spans);
    let mut out: Vec<(Name, LayerTime)> = Name::ALL
        .iter()
        .map(|&n| (n, LayerTime::default()))
        .collect();
    for (s, covered) in spans.iter().zip(covered) {
        let duration = s.end - s.start;
        let slot = &mut out[Name::ALL.iter().position(|&n| n == s.name).expect("in ALL")].1;
        slot.count += 1;
        slot.total_ns += duration;
        slot.self_ns += duration - covered;
    }
    out
}

/// For the cells that hold an `entry` span: the entry spans' summed
/// duration, and the time the same cells' `replay.cell` spans spend in
/// their child spans (the replayed layer calls). The difference is the
/// time the entry spends outside the layers the replay times.
pub fn entry_and_replayed_ns(spans: &[Span], entry: Name) -> (u64, u64) {
    let covered = covered_by_children(spans);
    let cells: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == entry)
        .map(|s| s.cell)
        .collect();
    let mut entry_ns = 0;
    let mut replayed_ns = 0;
    for (s, covered) in spans.iter().zip(covered) {
        if s.name == entry {
            entry_ns += s.end - s.start;
        } else if s.name == Name::ReplayCell && cells.contains(&s.cell) {
            replayed_ns += covered;
        }
    }
    (entry_ns, replayed_ns)
}

/// For each span, the part of it that its direct children cover, in ns.
fn covered_by_children(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| covered_ns(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: 0,
        }
    }

    fn time_of(times: &[(Name, LayerTime)], name: Name) -> LayerTime {
        times.iter().find(|(n, _)| *n == name).expect("listed").1
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // cell [0,100) > build [10,40) > protect [15,25); exec [50,90).
        let spans = [
            span(Name::ReplayCell, 0, 100, None),
            span(Name::SimBuild, 10, 40, Some(0)),
            span(Name::SimProtect, 15, 25, Some(1)),
            span(Name::SimExecAlone, 50, 90, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(time_of(&t, Name::ReplayCell).self_ns, 100 - 30 - 40);
        assert_eq!(time_of(&t, Name::SimBuild).self_ns, 30 - 10);
        assert_eq!(time_of(&t, Name::SimProtect).self_ns, 10);
        assert_eq!(time_of(&t, Name::SimExecAlone).total_ns, 40);
    }

    #[test]
    fn adjacent_children_are_counted_once_each() {
        let spans = [
            span(Name::ReplayCell, 0, 60, None),
            span(Name::SimBuild, 0, 20, Some(0)),
            span(Name::SimOsMap, 20, 30, Some(0)),
            span(Name::SimOsMap, 30, 60, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(time_of(&t, Name::ReplayCell).self_ns, 0);
        let os = time_of(&t, Name::SimOsMap);
        assert_eq!((os.count, os.total_ns, os.self_ns), (2, 40, 40));
    }

    #[test]
    fn overlapping_and_overhanging_children_cover_their_union() {
        let mut intervals = [(5, 20), (10, 30), (40, 120)];
        assert_eq!(covered_ns(0, 100, &mut intervals), 25 + 60);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
    }

    #[test]
    fn entry_time_is_split_against_the_replay_of_the_same_cells() {
        let mut spans = vec![
            // Cell 1: entry 50 ns; its replay spends 30 of 35 ns in layers.
            span(Name::SecbenchCell, 0, 50, None),
            span(Name::ReplayCell, 50, 85, None),
            span(Name::SimBuild, 52, 62, Some(1)),
            span(Name::SimExecAlone, 62, 82, Some(1)),
            // Cell 2 has no secbench entry: its replay does not count.
            span(Name::BenchPerfCell, 100, 200, None),
            span(Name::ReplayCell, 200, 300, None),
            span(Name::SimExecAlone, 200, 300, Some(5)),
        ];
        for s in &mut spans[4..] {
            s.cell = 2;
        }
        assert_eq!(entry_and_replayed_ns(&spans, Name::SecbenchCell), (50, 30));
        assert_eq!(
            entry_and_replayed_ns(&spans, Name::BenchPerfCell),
            (100, 100)
        );
    }

    #[test]
    fn tracer_nests_and_tags_cells() {
        let mut t = Tracer::new();
        t.set_cell(7);
        let outer = t.begin(Name::ReplayCell);
        t.time(Name::SimBuild, || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.cell == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).expect("in-memory write");
        let text = String::from_utf8(tsv).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).expect("row").starts_with("sim.build\t"));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn ending_an_outer_span_first_panics() {
        let mut t = Tracer::new();
        let outer = t.begin(Name::ReplayCell);
        let _inner = t.begin(Name::SimBuild);
        t.end(outer);
    }
}
