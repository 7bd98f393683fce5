"""Helpers of the benchmark runner: summary statistics, the golden diff,
and parsing of driver output into per-cell outcomes.

Each parser turns one driver's printed table into a dict of
``"driver|cell" -> printed value``, keyed exactly as the traced replay
(``perfbench/trace``) keys its own outcomes, so the two can be compared
cell by cell.
"""

import re
import statistics

# One vulnerability label as the drivers print it, e.g.
# "A_inv ~> V_u ~> V_a (fast)".
_VULN = r"\S+ ~> \S+ ~> \S+ \((?:fast|slow)\)"
_NUM = r"\d+\.\d+"


def summary(values):
    """Median and quartiles (Python's default quantile method) of a
    non-empty sample, with its size."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def golden_diff(actual, expected):
    """None when the two byte strings are equal, else a one-line
    description of the first differing line."""
    if actual == expected:
        return None
    got = actual.split(b"\n")
    want = expected.split(b"\n")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i + 1}: expected {w[:120]!r}, got {g[:120]!r}"
    return f"expected {len(want)} lines, got {len(got)}"


def parse_table4(text):
    designs = []
    out = {}
    for line in text.splitlines():
        if not designs and "|" in line and " TLB" in line:
            designs = [seg.split()[0] for seg in line.split("|")[1:]]
            continue
        m = re.search(_VULN, line)
        if not (m and "|" in line):
            continue
        for design, seg in zip(designs, line.split("|")[1:]):
            p1, p2 = seg.split()[:2]
            out[f"table4|{m.group(0)}|{design}"] = f"{p1} {p2}"
    return out


def parse_mitigations(text):
    out = {}
    for line in text.splitlines():
        m = re.match(r"^(.*\S)\s+(\d+/24)\s+\d+/24$", line)
        if m:
            out[f"mitigations|{m.group(1)}"] = m.group(2)
    return out


def parse_ablation_rf(text):
    out = {}
    for line in text.splitlines():
        m = re.match(rf"^({_VULN})\s+({_NUM})\s+({_NUM})", line)
        if m:
            out[f"ablation_rf|{m.group(1)}"] = f"{m.group(2)} {m.group(3)}"
    return out


def parse_ablation_sp_ways(text):
    out = {}
    for line in text.splitlines():
        m = re.match(rf"^\s*(\d+)\s+({_NUM})\s+({_NUM})\s+({_NUM})$", line)
        if m:
            out[f"ablation_sp_ways|{m.group(1)}"] = " ".join(m.group(2, 3, 4))
    return out


def parse_table7_eval(text):
    # Header: "{family:<38} {pattern:<30}" then " {label:>18}" per design.
    labels = []
    out = {}
    for line in text.splitlines():
        if line.startswith("family"):
            rest = line[69:]
            labels = [rest[i : i + 19].strip() for i in range(0, len(rest), 19)]
            continue
        m = re.match(rf"^(.+?)\s{{2,}}\S.*?\((?:fast|slow)\)((?:\s+{_NUM})+)$", line)
        if m and labels:
            for label, value in zip(labels, m.group(2).split()):
                out[f"table7_eval|{m.group(1)}|{label}"] = value
    return out


def parse_fig7(text):
    # Panels: "Figure 7a: IPC of the SA TLB", a header of
    # "{workload:<22} {runs:>5}" plus " {config:>8}" per column, then rows.
    out = {}
    panel = None
    configs = []
    for line in text.splitlines():
        m = re.match(r"^Figure (7\w): ", line)
        if m:
            panel, configs = m.group(1), None
            continue
        if panel and configs is None and line.startswith("workload"):
            configs = [line[i : i + 9].strip() for i in range(28, len(line), 9)]
            continue
        m = re.match(r"^\s+(SP|RF|1E) \w+ / (SA|SP|4W32) \w+\s+= (\d+\.\d+)x", line)
        if m:
            out[f"fig7|headline|{m.group(1)}/{m.group(2)}"] = m.group(3)
            continue
        if panel and configs and line.strip():
            label, runs = line[:22].strip(), line[22:28].strip()
            cells = [line[i : i + 9].strip() for i in range(28, len(line), 9)]
            for config, value in zip(configs, cells):
                out[f"fig7|{panel}|{label}|{runs}|{config}"] = value
        elif not line.strip():
            panel = None
    return out


PARSERS = {
    "table4": parse_table4,
    "mitigations": parse_mitigations,
    "ablation_rf": parse_ablation_rf,
    "ablation_sp_ways": parse_ablation_sp_ways,
    "table7_eval": parse_table7_eval,
    "fig7": parse_fig7,
}


def fidelity_problems(replayed, printed):
    """Compares the replay's ``(key, value)`` outcomes with the cells
    parsed from the drivers' output; returns a list of differences."""
    replayed = dict(replayed)
    problems = []
    for key in sorted(set(replayed) | set(printed)):
        want, got = printed.get(key), replayed.get(key)
        if want != got:
            problems.append(f"{key}: driver prints {want!r}, replay gives {got!r}")
    return problems
