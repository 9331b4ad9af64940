"""``check`` workload: ``repro check`` as a developer or CI runs it.

Each pass is a fresh interpreter running ``python -m repro check --json``
over the package.  Each round is one package pass and one pass over the
seeded lifecycle fixtures of the test suite (read in place).  The inputs
are the program's own sources, so the seed changes nothing here.
"""

from __future__ import annotations

import ast
import json
import re
import time
from pathlib import Path

from . import common
from .common import Outcome

FIXTURES = common.ROOT / "tests" / "analysis" / "fixtures" / "lifecycle"
SEEDED = re.compile(r"Seeded (MOA\d+)")


def check_cmd(*paths: str) -> list[str]:
    return common.python_cmd("-m", "repro", "check", "--json", *paths)


def import_cmd() -> list[str]:
    return common.python_cmd("-c", "import repro.cli")


def fixture_expectations() -> dict[str, str | None]:
    """Fixture file name -> the MOA code its docstring plants (None for
    the clean fixture)."""
    expected = {}
    for path in sorted(FIXTURES.glob("*.py")):
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        match = SEEDED.search(doc)
        expected[path.name] = match.group(1) if match else None
    return expected


def _diagnostics(child: common.ChildRun) -> list[dict] | None:
    try:
        payload = json.loads(child.stdout)
    except json.JSONDecodeError:
        return None
    return [d for report in payload.get("reports", []) for d in report["diagnostics"]]


def check_package_pass(child: common.ChildRun) -> str | None:
    diagnostics = _diagnostics(child)
    if diagnostics is None:
        return f"exit {child.returncode}, no JSON report"
    errors = [d["code"] for d in diagnostics if d["severity"] == "error"]
    if errors or child.returncode != 0:
        return f"exit {child.returncode}, error diagnostics {errors}"
    return None


def check_fixture_pass(child: common.ChildRun, expected: dict) -> str | None:
    diagnostics = _diagnostics(child)
    if diagnostics is None:
        return f"exit {child.returncode}, no JSON report"
    found: dict[str, set] = {name: set() for name in expected}
    for d in diagnostics:
        name = Path(d["location"].rsplit(":", 1)[0]).name
        found.setdefault(name, set()).add(d["code"])
    for name, code in expected.items():
        if code is None and found[name]:
            return f"{name} flagged with {sorted(found[name])}"
        if code is not None and code not in found[name]:
            return f"{name} not flagged with its seeded {code} (got {sorted(found[name])})"
    return None


def run(seed: int, seconds: float) -> Outcome:
    del seed  # the inputs are the program's sources
    expected = fixture_expectations()
    fixtures = [str(FIXTURES / name) for name in expected]
    setups = [common.run_child(import_cmd()).wall_s for _ in range(common.SETUP_REPEATS)]
    out = Outcome()
    passes, fixture_walls, rss = [], [], 0.0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        child = common.run_child(check_cmd())
        out.attempted += 1
        problem = check_package_pass(child)
        if problem is not None:
            out.miss(f"package pass: {problem}")
        passes.append(child.wall_s)
        rss = max(rss, child.maxrss_mb)
        child = common.run_child(check_cmd(*fixtures))
        out.attempted += 1
        problem = check_fixture_pass(child, expected)
        if problem is not None:
            out.miss(f"fixture pass: {problem}")
        fixture_walls.append(child.wall_s)
    wall = time.perf_counter() - started
    out.metrics = {
        "setup_s": (common.median(setups), "s"),
        "qps": (out.attempted / wall, "1/s"),
        "p50_ms": (common.median(passes) * 1000.0, "ms"),
        "rss_mb": (rss, "MB"),
    }
    out.report = [
        f"check: {len(passes)} package passes and {len(fixture_walls)} fixture passes "
        f"in {wall:.2f}s; import probes " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        f"check: pass_s={common.median(passes):.3f} (n={len(passes)}), fixture pass "
        f"{common.median(fixture_walls):.3f}s, {len(expected)} fixtures",
    ]
    return out


#: each analysis family timed inside one fresh interpreter, import
#: excluded; prints its seconds and its count of error diagnostics
_FAMILY = (
    "import time, repro.analysis as a\n"
    "t = time.perf_counter(); r = a.{fn}(); print(time.perf_counter() - t, len(r.errors))"
)


def layers(seed: int, spans, overhead: bool, out: Outcome) -> tuple[dict, list]:
    """Import time of the CLI and each analysis family's own time; each
    family must report no error-severity diagnostic over the package."""
    del seed
    for i in range(common.SETUP_REPEATS):
        with spans.span("cli.import", request=i):
            common.run_child(import_cmd())
    metrics = {"cli.import_s": (common.median(spans.durations("cli.import")), "s")}
    for family, fn in (("effects", "check_package"), ("serve", "check_serve"),
                       ("lifecycle", "check_lifecycle")):
        with spans.span(f"analysis.{family}.process"):
            child = common.run_child(common.python_cmd("-c", _FAMILY.format(fn=fn)))
        out.attempted += 1
        try:
            seconds, errors = child.stdout.split()
        except ValueError:
            out.fail(f"analysis.{family}: exit {child.returncode}, output {child.stdout!r}")
            continue
        if int(errors) or child.returncode != 0:
            out.miss(f"analysis.{family}: exit {child.returncode}, {errors} error diagnostics")
        metrics[f"analysis.{family}_s"] = (float(seconds), "s")
    lines = []
    if overhead:
        def batch(recorder):
            with recorder.span("check.pass"):
                common.run_child(check_cmd())

        lines.append(common.overhead_line("check", 1, batch, spans))
    return metrics, lines
