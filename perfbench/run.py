"""Sweep benchmark: end-to-end jobs/s per workload, per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload churn-pool --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--workload all`` runs every workload in turn and exits non-zero if
any of them fails its checks.

Each repetition runs in a fresh process (``rep.py``) on a cold result
cache.  With ``--trace 0`` repetitions repeat until ``--seconds`` have
passed and the medians of the end-to-end metrics are reported.  With
``--trace 1`` one untraced two-worker run gives the runner and fleet
numbers, then pairs of serial runs, one untraced and one traced, repeat
until ``--seconds`` have passed and give the per-layer metrics and the
tracing overhead.

Every repetition's outputs are checked: no job fails, the per-job
scalar digest is the same in every repetition (and equals the pinned
digest at the default seed), the churn workloads give one digest on
both engines, the fleet takes every job it is able to take, and the
tournament's scalar oracle matches.  Any mismatch prints
``"correct": false`` with no metrics and exits 1.  The last stdout line
is the JSON result; each result is also appended, with the host
fingerprint, to ``.perfbench_work/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import host
import workloads as wl

HERE = pathlib.Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
#: Fewest timed repetitions per ``--trace 0`` run, however long each is.
MIN_REPS = 3
#: Whole-run budget; a child gets whatever is left of it.
RUN_BUDGET_S = 170.0

#: Per-layer metrics read from the untraced two-worker run; the rest
#: come from the traced serial runs.
LOADED_RUN_METRICS = (
    "pool.busy_fraction", "pool.overhead_s", "pool.job_s_p50",
    "pool.job_s_p90", "pool.job_count", "pool.retries",
    "pool.worker_crashes", "fleet.members", "fleet.fallback_jobs",
    "fleet.batches", "fleet.machine_ticks", "fleet.flushes",
    "fleet.resyncs", "fleet.housekeeping_fires",
)


class BenchError(Exception):
    """A repetition failed or its outputs did not check out."""


def end_to_end_values(rep: dict) -> dict:
    """One repetition's end-to-end figures.  Timings are normalised to
    the reference host by the calibration round timed around the
    repetition's timed region (``host.normalise``)."""
    return {
        "jobs_per_s": rep["completed"] / host.normalise(rep["wall_s"],
                                                        rep["round_s"]),
        "setup_s": host.normalise(rep["setup_s"], rep["round_s"]),
        "peak_rss_mb": rep["peak_rss_mb"],
    }


class Bench:
    """One benchmark invocation: its children, checks and records."""

    def __init__(self, root: pathlib.Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.engine = wl.WORKLOADS[workload]
        self.work = root / WORK_DIR
        self.started = time.monotonic()
        self.children = 0
        self.reps: list[dict] = []
        self.digest: str | None = None
        self.expected_members: int | None = None
        pinned = json.loads((HERE / "digests.json").read_text())
        self.pinned = (pinned["digests"][wl.digest_key(workload)]
                       if seed == pinned["seed"] else None)

    def child(self, engine: str, workers: int = wl.WORKERS,
              trace_out: pathlib.Path | None = None,
              place: bool = False) -> dict:
        """Run one repetition in a fresh process and check its outputs."""
        self.children += 1
        cache = self.work / f"cache-{os.getpid()}-{self.children}"
        cmd = [sys.executable, str(HERE / "rep.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--engine", engine, "--workers", str(workers),
               "--cache-dir", str(cache)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if place:
            cmd.append("--place")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, text=True,
                                  capture_output=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{engine} repetition ran past the run budget")
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{engine} repetition exited {proc.returncode}:"
                             f"\n{proc.stderr[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        self.reps.append(rep)
        if place:
            self.expected_members = rep["placement"]["expected_members"]
        self.check(rep)
        return rep

    def check(self, rep: dict) -> None:
        label = f"{rep['engine']} repetition (workers={rep['workers']})"
        if rep["error"]:
            raise BenchError(f"{label}: {rep['error']}")
        if rep["failed"]:
            raise BenchError(f"{label}: {rep['failed']} of {rep['jobs']} "
                             "jobs failed")
        if rep["cached"]:
            raise BenchError(f"{label}: {rep['cached']} jobs came from the "
                             "cache, which must start cold")
        if self.workload == "tournament":
            oracle = rep["oracle"]
            if not (oracle["checked"] and oracle["identical"]):
                raise BenchError(f"{label}: scalar oracle mismatch in "
                                 f"{oracle.get('mismatches')}")
        members = rep["layers"]["fleet.members"]
        if rep["engine"] == "fleet" and members != self.expected_members:
            raise BenchError(
                f"{label}: the fleet ran {members} jobs but "
                f"{self.expected_members} are fleet-eligible")
        if self.digest is None:
            self.digest = rep["digest"]
            if self.pinned is not None and self.digest != self.pinned:
                raise BenchError(f"{label}: results digest {self.digest} "
                                 f"!= pinned {self.pinned}")
        elif rep["digest"] != self.digest:
            raise BenchError(f"{label}: results digest {rep['digest']} != "
                             f"{self.digest} of the first repetition")

    def verify_other_engine(self) -> dict | None:
        """Churn only: run the other engine once, untimed, with placement
        accounting; its digest must match every timed repetition."""
        if self.workload == "tournament":
            return None
        other = "pool" if self.engine == "fleet" else "fleet"
        rep = self.child(other, place=True)
        return rep["placement"]

    # -- the two modes -------------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        deadline = time.monotonic() + seconds
        timed: list[dict] = []
        while len(timed) < MIN_REPS or time.monotonic() < deadline:
            timed.append(self.child(self.engine))
        values = [end_to_end_values(rep) for rep in timed]
        return {name: statistics.median(v[name] for v in values)
                for name in values[0]}

    def per_layer(self, seconds: float, placement: dict | None,
                  calibration_s: float) -> dict:
        deadline = time.monotonic() + seconds
        loaded = self.child(self.engine)
        pairs = []
        while not pairs or time.monotonic() < deadline:
            serial = self.child(self.engine, workers=1)
            trace_out = (self.work / f"trace-{self.workload}-s{self.seed}"
                         f"-{len(pairs)}.json")
            traced = self.child(self.engine, workers=1, trace_out=trace_out)
            pairs.append((serial, traced))
        metrics = {name: loaded["layers"][name] for name in LOADED_RUN_METRICS}
        for name in pairs[0][1]["layers"]:
            if name not in metrics:
                metrics[name] = statistics.median(
                    traced["layers"][name] for _serial, traced in pairs)
        serial_wall = statistics.median(s["wall_s"] for s, _t in pairs)
        traced_wall = statistics.median(t["wall_s"] for _s, t in pairs)
        metrics.update({
            "fleet.ineligible_jobs": (placement["ineligible"]
                                      if placement else 0),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": serial_wall,
            "trace.overhead_ratio": traced_wall / serial_wall,
            "host.calibration_s": calibration_s,
        })
        return metrics


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def run_workload(root: pathlib.Path, spec: dict, workload: str, seed: int,
                 seconds: int, trace: int, fingerprint: dict,
                 results: pathlib.Path) -> dict:
    """Run, check and report one workload; returns its result record."""
    bench = Bench(root, workload, seed)
    bench.work.mkdir(exist_ok=True)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    placement = None
    try:
        placement = bench.verify_other_engine()
        if trace:
            measured = bench.per_layer(seconds, placement,
                                       fingerprint["calibration_s"])
        else:
            measured = bench.end_to_end(seconds)
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        measured = None
    attempted = sum(rep["jobs"] for rep in bench.reps)
    failed = sum(rep["failed"] for rep in bench.reps)
    correct = measured is not None
    metrics = {}
    if correct:
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in wanted}

    print(f"workload {workload}, seed {seed}: "
          f"{len(bench.reps)} repetitions, digest {bench.digest}")
    if placement is not None:
        reasons = "".join(f"; {n} x {reason}"
                          for reason, n in placement["reasons"].items())
        print(f"  fleet placement: {placement['eligible']} eligible, "
              f"{placement['ineligible']} ineligible{reasons}; the fleet "
              f"must take {placement['expected_members']}")
    timed = [rep for rep in bench.reps if rep["engine"] == bench.engine
             and rep["workers"] == wl.WORKERS]
    for name, value in metrics.items():
        values = ([end_to_end_values(rep)[name] for rep in timed]
                  if not trace else [])
        print(f"  {name:<28} {value['value']:>14.6g} {value['unit']:<8} "
              f"{_spread(values) if values else ''}")
    if timed and not trace:
        print("  as measured, before normalising: jobs_per_s "
              f"{statistics.median(r['jobs_per_s'] for r in timed):.6g}, "
              f"setup_s {statistics.median(r['setup_s'] for r in timed):.6g}"
              "; calibration round "
              f"{statistics.median(r['round_s'] for r in timed) * 1e3:.4g} ms"
              f" (reference {host.REFERENCE_ROUND_S * 1e3:g} ms)")
    print(f"  {'failed_job_fraction':<28} "
          f"{failed / attempted if attempted else 0.0:>14.6g} {'ratio':<8} "
          f"{failed} of {attempted} jobs")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "workloads_digest": hashlib.sha256(
            (HERE / "workloads.py").read_bytes()).hexdigest()[:16],
        "trace": trace, "host": fingerprint, "correct": correct,
        "digest": bench.digest, "attempted": attempted, "failed": failed,
        "metrics": metrics, "placement": placement, "reps": bench.reps,
    }
    with open(results, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"],
                        required=True,
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None,
                        help="append result records here (default: "
                             f"{WORK_DIR}/results.jsonl)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = pathlib.Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The build: byte-compile the package so set-up measures imports,
    # not the first compilation.
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(root / "src" / "repro")],
                           capture_output=True, text=True)
    if build.returncode != 0:
        print(f"error: compileall failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    fingerprint = host.fingerprint()
    print("host: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    results = (pathlib.Path(args.results) if args.results
               else root / WORK_DIR / "results.jsonl")
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [
        run_workload(root, spec, name, args.seed, args.seconds, args.trace,
                     fingerprint, results)
        for name in names
    ]
    correct = all(record["correct"] for record in records)
    if args.workload == "all":
        metrics = {f"{record['workload']}/{name}": value
                   for record in records
                   for name, value in record["metrics"].items()}
    else:
        metrics = records[0]["metrics"]
    attempted = sum(record["attempted"] for record in records)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
