"""Compare two sets of benchmark results, host-aware.

Each set is a ``results.jsonl`` file that ``run.py`` appends to (one
record per run, with the host fingerprint).  For every workload and
metric both sets measured, prints each set's median and quartiles and
the change of the median against the metric's direction.  Sets whose
host fingerprints differ, or that ran different workload definitions
(``workloads.py``), are reported as not comparable and no change is
printed::

    python3 perfbench/compare.py base.jsonl new.jsonl

Exit status: 0 when comparable, 1 when not comparable, 2 on
unreadable input.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

import host

HERE = pathlib.Path(__file__).resolve().parent


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _host_of(records: list[dict]) -> dict:
    """The set's fingerprint: identity fields of the first record and the
    median calibration time over all of them."""
    first = dict(records[0]["host"])
    first["calibration_s"] = statistics.median(
        r["host"]["calibration_s"] for r in records)
    return first


def _summary(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.6g} (n=1)"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.4g}, {q3:.4g}] (n={len(values)})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        base, new = load(args.base), load(args.new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not base or not new:
        print("error: an empty result set", file=sys.stderr)
        return 2
    ok, reasons = host.comparable(_host_of(base), _host_of(new))
    definitions = {r.get("workloads_digest") for r in base + new}
    if len(definitions) > 1:
        ok = False
        reasons.append("workload definitions differ: "
                       f"{sorted(map(str, definitions))}")
    print(f"comparable: {str(ok).lower()}")
    for reason in reasons:
        print(f"  {reason}")

    spec_path = HERE.parent / "BENCHMARK.json"
    better = {}
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for metric in spec["end_to_end"] + spec["per_layer"]:
            better[metric["name"]] = metric["better"]

    def values(records, workload, name):
        return [r["metrics"][name]["value"] for r in records
                if r["correct"] and r["workload"] == workload
                and name in r["metrics"]]

    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        names = sorted({n for r in base + new if r["workload"] == workload
                        for n in r["metrics"]})
        print(f"\n{workload}")
        for name in names:
            a, b = values(base, workload, name), values(new, workload, name)
            if not a or not b:
                continue
            line = f"  {name:<26} {_summary(a):<36} {_summary(b):<36}"
            ma, mb = statistics.median(a), statistics.median(b)
            if ok and ma:
                change = (mb - ma) / ma
                if better.get(name) == "lower":
                    change = -change
                change += 0.0  # no "-0.0%"
                verdict = ("better" if change > 0
                           else "worse" if change < 0 else "")
                line += f" {change:+.1%} {verdict}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
