"""Benchmark runner for the MM database.

Usage, from the repository root::

    python3 perfbench/run.py --workload text --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload feature-nra --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload check --seconds 12 --steadiness 10

``--trace 0`` runs the workload and prints its end-to-end metrics;
``--trace 1`` measures every layer on the seed's inputs from spans the
benchmark records around its own calls into the program, checks every
answer of those calls, writes the spans as JSONL under ``.perfbench/``
and prints the per-layer metrics and the tracing overhead on the named
workload.  The last line of standard output is always one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--steadiness
N`` instead runs two sets of N seeds and prints each end-to-end metric's
spread next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: workload name -> (module, keyword arguments of its ``run``)
WORKLOADS = {
    "text": ("text", {}),
    "feature-fa": ("feature", {"engine": "fa"}),
    "feature-ta": ("feature", {"engine": "ta"}),
    "feature-nra": ("feature", {"engine": "nra"}),
    "feature-ca": ("feature", {"engine": "ca"}),
    "serve": ("serve", {}),
    "check": ("check", {}),
}
#: modules with per-layer measurements, in the order the traced run runs them
LAYER_MODULES = ("text", "feature", "serve", "check")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _module(name: str):
    import importlib

    return importlib.import_module(f"perfbench.{name}")


def run_untraced(workload: str, seed: int, seconds: float) -> int:
    from perfbench import common

    module, kwargs = WORKLOADS[workload]
    outcome = _module(module).run(seed, seconds, **kwargs)
    for line in outcome.report + [f"FAILED: {note}" for note in outcome.notes]:
        print(line)
    missing = [m["name"] for m in _spec()["end_to_end"] if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload {workload} did not measure {missing}")
    print(common.result_line(outcome.wrong == 0, outcome.attempted, outcome.failed,
                             outcome.metrics))
    return 0 if outcome.wrong == 0 else 1


def run_traced(workload: str, seed: int) -> int:
    from perfbench import common

    spans = common.Spans()
    outcome = common.Outcome()
    metrics, lines = {}, []
    for name in LAYER_MODULES:
        got, extra = _module(name).layers(seed, spans, name == WORKLOADS[workload][0],
                                          outcome)
        metrics.update(got)
        lines.extend(extra)
    path = common.WORK / f"spans-{workload}-{seed}.jsonl"
    spans.write_jsonl(path)
    print(f"spans: {len(spans.records)} written to {path.relative_to(ROOT)}")
    print("self time by span (s):")
    for name, own in sorted(spans.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<34} {own:10.4f}")
    for line in lines + [f"FAILED: {note}" for note in outcome.notes]:
        print(line)
    print(f"checked {outcome.attempted} answers of direct layer calls, "
          f"{outcome.failed} failed")
    wanted = [m["name"] for m in _spec()["per_layer"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"traced run did not measure {missing}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"  {name:<34} {value:14.6f} {unit}")
    print(common.result_line(outcome.wrong == 0, outcome.attempted, outcome.failed,
                             {name: metrics[name] for name in wanted}))
    return 0 if outcome.wrong == 0 else 1


def steadiness(workload: str, runs: int, seconds: int) -> int:
    """Two sets of ``runs`` runs on fresh seeds; each end-to-end metric's
    median, quartiles and spread ((q3 - q1) / median) per set, the shift
    of the second median, and both against the metric's bound."""
    spec = _spec()
    sets = []
    for first in (1, runs + 1):
        results = []
        for seed in range(first, first + runs):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                raise RuntimeError(f"seed {seed} exited {proc.returncode}")
            results.append(json.loads(lines[-1]))
            print(f"  set {len(sets) + 1} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4f}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        sets.append(results)
    ok = True
    print(f"steadiness of {workload}: 2 sets x {runs} runs of {seconds}s")
    print(f"{'metric':<10} {'bound':>6} | {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
          f"| {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} | {'shift':>7}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        row = []
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            row.append((q2, q1, q3, (q3 - q1) / q2))
        worse = row[1][0] / row[0][0] - 1.0
        if metric["better"] == "higher":
            worse = -worse
        spread_ok = all(r[3] <= bound for r in row)
        ok &= spread_ok and worse <= bound
        print(f"{name:<10} {bound:>6.3f} | "
              + " | ".join(f"{m:>10.4f} {a:>10.4f} {b:>10.4f} {s:>7.4f}" for m, a, b, s in row)
              + f" | {worse:>+7.4f}" + ("" if spread_ok and worse <= bound else "  OVER BOUND"))
    shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
    print(f"failed share per set: {sorted(shares[0])} / {sorted(shares[1])}")
    ok &= shares[0] == shares[1] and len(shares[0]) == 1
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run two sets of RUNS seeds and report spreads")
    args = parser.parse_args(argv)

    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)  # this directory's module names are not top-level
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    if not common.program_present():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args.workload, args.steadiness, int(args.seconds))
    common.WORK.mkdir(exist_ok=True)
    common.compile_program()
    if args.trace:
        return run_traced(args.workload, args.seed)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
