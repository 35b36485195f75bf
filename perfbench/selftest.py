"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, each with a handful of
tiny inputs, and checks that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, and no other;
* every self time is >= 0, per span and per metric;
* the layer self times plus ``trace.bookkeeping_s`` and
  ``trace.unattributed_s`` add up to ``trace.wall_s``;
* the correctness gates pass.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run
from spans import LAYERS
from workloads import BoundsSmall, GrowthSweep, MoiGeneric

TINY = {
    "growth-sweep": lambda: GrowthSweep(run.OUT, sizes=(1, 2, 4)),
    "moi-generic": lambda: MoiGeneric(run.OUT, dim=6, tuples=2),
    "bounds-small": lambda: BoundsSmall(run.OUT, sizes=(2,), trials=3),
}


def check(name: str, trace: bool, spec: dict) -> list[str]:
    result = run.measure(TINY[name](), seed=1, seconds=0.0, trace=trace, probes=1)
    where = f"{name} trace={int(trace)}"
    problems = []
    if not result["correct"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"{where}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for metric, unit in expected.items():
        got = metrics.get(metric, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric} emitted as {got}, want a number in {unit}")
    if not trace:
        return problems

    value = {k: v["value"] for k, v in metrics.items()}
    negative = [k for k, v in value.items() if k.endswith("self_s") and v < 0]
    spans = json.loads((run.OUT / f"{name}.trace.json").read_text())["spans"]
    negative += [f"span {i} ({span[0]})" for i, span in enumerate(spans) if span[4] < 0]
    if negative:
        problems.append(f"{where}: negative self time in {negative}")
    total = sum(value[f"{layer}.self_s"] for layer in LAYERS)
    total += value["trace.bookkeeping_s"] + value["trace.unattributed_s"]
    if not math.isclose(total, value["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"{where}: self times add up to {total!r}, traced wall is {value['trace.wall_s']!r}")
    return problems


def main() -> int:
    if not run.moilab_source_ok():
        print(f"selftest: no moilab package under {run.SRC}", file=sys.stderr)
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = [p for name in TINY for trace in (False, True) for p in check(name, trace, spec)]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("failed" if problems else f"ok ({2 * len(TINY)} runs)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
