"""Table 1: the detector classifies ACK-clocked protocols as elastic and
application-limited / constant-rate / slow-reacting traffic as inelastic.

Each class is judged on the median ``competitive_fraction`` over seven
seeds.  ``classify`` draws the cross flow's start from its seed, uniformly
over [0, 1) s, so the seeds are seven phases of the cross flow against
Nimbus's 5 Hz pulses; the verdict of one phase is not the class's.  Two
caveats: seeds 3 and 4 draw 0.238 and 0.236 s, which fall on the same 4 ms
tick, so their rows are identical; and PCC-Vivace's per-seed fractions
range over about 0.15-0.65, straddling the 0.5 threshold, so its row rests
on the median alone.  App-limited (median ~0.56) is the one row that
disagrees with the paper.
"""

import statistics

from conftest import BENCH_DT

from repro.experiments.common import run_cases
from repro.experiments.table1_classification import TRAFFIC_CLASSES, classify

CLASSES = ("cubic", "reno", "vegas", "fixed-window", "app-limited",
           "constant-stream", "pcc-vivace")
SEEDS = range(7)


def test_table1_classification():
    cases = [dict(traffic=name, seed=seed)
             for name in CLASSES for seed in SEEDS]
    payloads = run_cases(classify, cases, duration=35.0, dt=BENCH_DT)
    fractions = {name: [] for name in CLASSES}
    for case, payload in zip(cases, payloads):
        fractions[case["traffic"]].append(
            payload["extra"]["competitive_fraction"])
    verdict = {name: "elastic" if statistics.median(values) >= 0.5
               else "inelastic" for name, values in fractions.items()}
    # The headline rows of Table 1: loss-based ACK-clocked traffic is
    # elastic; application-limited and constant streams are inelastic.
    assert verdict["cubic"] == "elastic"
    assert verdict["reno"] == "elastic"
    assert verdict["constant-stream"] == "inelastic"
    assert verdict["pcc-vivace"] == "inelastic"
    # Overall: at least 5 of the 7 rows match the paper's table.
    correct = sum(verdict[name] == TRAFFIC_CLASSES[name].expected
                  for name in CLASSES)
    assert correct >= 5, fractions
