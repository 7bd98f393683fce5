"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests

The span self-time tests live with the traced replay:
``cargo test --manifest-path perfbench/trace/Cargo.toml``.
"""

import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import harness  # noqa: E402

ROOT = HERE.parent.parent

TABLE4 = """\
running 500 trials x 2 placements x 24 vulnerabilities x 3 designs (serial) ...
Attack Strategy                    Vulnerability                  |          SA TLB          |          SP TLB          |          RF TLB
                                                                  |     p1*     p2*   C*   C |     p1*     p2*   C*   C |     p1*     p2*   C*   C
TLB Internal Collision             A_inv ~> V_u ~> V_a (fast)     |    0.00    1.00 1.00 1.00 |    0.00    1.00 1.00 1.00 |    0.66    0.63 0.00 0.00
TLB Prime + Probe                  A_d ~> V_u ~> A_d (slow)       |    1.00    0.00 1.00 1.00 |    0.00    0.00 0.00 0.00 |    0.28    0.26 0.00 0.00
defended (measured C* <= 0.05): SA 10/24, SP 14/24, RF 24/24 (paper: 10, 14, 24)
"""

TABLE7 = (
    f"{'family':<38} {'pattern':<30}"
    + "".join(f" {label:>18}" for label in ["SA", "SP", "RF (precise inv)", "RF (region flush)"])
    + "\n"
    + f"{'TLB Flush + Flush (internal)':<38} {'V_a ~> V_u^inv ~> V_a^inv (slow)':<30}"
    + "".join(f" {v:>18.3f}" for v in [1.0, 1.0, 0.359, 0.0])
    + "\n"
)

FIG7 = """
Figure 7a: IPC of the SA TLB
workload                runs       1E    FA 32
RSA                       10    0.074    0.999
RSA+omnetpp               10    0.061    0.149

Figure 7d: MPKI of the SA TLB
workload                runs       1E    FA 32
RSA                       10  208.769    0.016

Headline comparisons (Sections 6.3-6.5, SecRSA workloads, 4W 32):
  SP MPKI / SA MPKI        = 1.62x   (paper: ~3.07x)
  1E IPC / 4W32 IPC        = 0.07x   (paper: ~0.62x, i.e. ~38% worse)
"""


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles_follow_python_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
        s = harness.summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s, {"median": 3.5, "q1": q1, "q3": q3, "n": 6})
        self.assertLess(s["q1"], s["median"])
        self.assertLess(s["median"], s["q3"])

    def test_single_sample_has_zero_spread(self):
        self.assertEqual(harness.summary([0.5]), {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1})

    def test_empty_sample_is_rejected(self):
        with self.assertRaises(ValueError):
            harness.summary([])


class GoldenDiffTest(unittest.TestCase):
    def test_equal_bytes_pass(self):
        self.assertIsNone(harness.golden_diff(b"a\nb\n", b"a\nb\n"))

    def test_first_differing_line_is_named(self):
        diff = harness.golden_diff(b"a\nB\nc\n", b"a\nb\nc\n")
        self.assertIn("line 2", diff)
        self.assertIn("b'b'", diff)

    def test_truncated_output_fails(self):
        self.assertIn("line 2", harness.golden_diff(b"a\n", b"a\nb\n"))
        self.assertEqual(harness.golden_diff(b"a\nb", b"a\nb\n"), "expected 3 lines, got 2")


class ParseTest(unittest.TestCase):
    def test_table4_rows_split_by_design(self):
        cells = harness.parse_table4(TABLE4)
        self.assertEqual(len(cells), 6)
        self.assertEqual(cells["table4|A_inv ~> V_u ~> V_a (fast)|RF"], "0.66 0.63")
        self.assertEqual(cells["table4|A_d ~> V_u ~> A_d (slow)|SA"], "1.00 0.00")

    def test_mitigation_counts(self):
        text = "approach   measured    paper\nSA TLB + ASIDs (Linux)    10/24    10/24\nFA TLB   18/24    18/24\n"
        self.assertEqual(
            harness.parse_mitigations(text),
            {"mitigations|SA TLB + ASIDs (Linux)": "10/24", "mitigations|FA TLB": "18/24"},
        )

    def test_ablation_rows_ignore_the_leak_marker(self):
        rf = "A_d ~> V_u ~> A_d (slow)        0.000        0.310  <-- LRU-way eviction leaks\n"
        self.assertEqual(
            harness.parse_ablation_rf(rf), {"ablation_rf|A_d ~> V_u ~> A_d (slow)": "0.000 0.310"}
        )
        sp = "          3            0.000          4.105             23.192\n"
        self.assertEqual(harness.parse_ablation_sp_ways(sp), {"ablation_sp_ways|3": "0.000 4.105 23.192"})

    def test_table7_labels_come_from_the_header_even_when_a_pattern_overflows(self):
        cells = harness.parse_table7_eval(TABLE7)
        self.assertEqual(cells["table7_eval|TLB Flush + Flush (internal)|RF (precise inv)"], "0.359")
        self.assertEqual(len(cells), 4)

    def test_fig7_panels_and_headline(self):
        cells = harness.parse_fig7(FIG7)
        self.assertEqual(cells["fig7|7a|RSA+omnetpp|10|FA 32"], "0.149")
        self.assertEqual(cells["fig7|7d|RSA|10|1E"], "208.769")
        self.assertEqual(cells["fig7|headline|SP/SA"], "1.62")
        self.assertEqual(cells["fig7|headline|1E/4W32"], "0.07")
        self.assertEqual(len(cells), 8)

    def test_committed_outputs_parse_to_every_cell(self):
        expected = {"table4": 72, "mitigations": 5, "ablation_rf": 24,
                    "ablation_sp_ways": 7, "table7_eval": 24}
        for name, count in expected.items():
            text = (ROOT / "results" / f"{name}.txt").read_text()
            self.assertEqual(len(harness.PARSERS[name](text)), count, name)
        fig7 = (ROOT / "perfbench" / "golden" / "fig7-quick.txt").read_text()
        self.assertEqual(len(harness.parse_fig7(fig7)), 152 + 4)


class FidelityTest(unittest.TestCase):
    def test_equal_outcomes_have_no_problems(self):
        printed = {"table4|x|SA": "0.00 1.00"}
        self.assertEqual(harness.fidelity_problems([("table4|x|SA", "0.00 1.00")], printed), [])

    def test_differing_missing_and_extra_cells_are_reported(self):
        printed = {"a": "1", "b": "2"}
        problems = harness.fidelity_problems([("a", "1.5"), ("c", "3")], printed)
        self.assertEqual(len(problems), 3)
        self.assertTrue(any(p.startswith("b:") and "None" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
