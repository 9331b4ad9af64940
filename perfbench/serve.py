"""``serve`` workload: the query service in its own process, driven by
two frame-protocol connections in a closed loop.

The benchmark generates and saves a database (the feature workloads'
objects and spaces, fragmented), starts ``perfbench.server_main`` over it
and streams requests from two threads of this process, one connection
each.  Each round of twenty requests per connection is fourteen ta, two
fa, one nra and one ca feature query, and two text queries.  The first-chunk
depth is small, so anytime chunks stream before each final.
"""

from __future__ import annotations

import shutil
import subprocess
import threading
import time

import numpy as np

from . import common, oracles
from .common import NO_SPANS, TOP_N, Outcome
from .feature import POOL, Inputs, check_answer

#: fewer objects than the feature workloads: served NRA re-executes per chunk, and
#: a run needs enough NRA and CA requests for a steady rate
OBJECTS = 400
CHUNK_DEPTH = 8
CONNECTIONS = 2
#: an assumed mix (the repository has no query log): mostly ta, the
#: engine the anytime path streams best, and a share of every other kind
ROUND = ("ta", "ta", "fa", "ta", "ta", "nra", "ta", "ta", "text", "ta",
         "ta", "ta", "fa", "ta", "ta", "ca", "ta", "ta", "text", "ta")
HOST = "127.0.0.1"


class Server:
    """One server process; ``setup_s`` is launch to first pong."""

    def __init__(self, directory, log) -> None:
        from repro.serve import ServeClient

        started = time.perf_counter()
        self.proc = subprocess.Popen(
            common.python_cmd("-m", "perfbench.server_main", str(directory),
                              str(CHUNK_DEPTH)),
            env=common.child_env(), cwd=common.ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"query server did not start: {line!r}")
            self.port = int(line.split()[1])
            with ServeClient(HOST, self.port) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> int:
        """Close the server's stdin and wait for it to exit; its code."""
        self.proc.stdin.close()
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9
        finally:
            self.proc.stdout.close()


def save_database(inputs: Inputs, directory) -> None:
    db = inputs.build()
    db.fragment()
    shutil.rmtree(directory, ignore_errors=True)
    db.save(directory)
    db.close()


def request(client, inputs: Inputs, kind: str, q: int) -> dict:
    """Send one request and drain its stream; times are from the send."""
    from repro.errors import ReproError

    record = {"kind": kind, "q": q, "seqs": [], "finals": 0, "final": None,
              "first": None, "total": None, "done": None, "error": None}
    t0 = time.perf_counter()
    try:
        if kind == "text":
            frames = client.query(kind="text", n=TOP_N,
                                  query=inputs.text_queries[q].text(inputs.collection))
        else:
            frames = client.query(kind="feature", n=TOP_N, algorithm=kind,
                                  queries=inputs.queries[q])
        for frame in frames:
            if record["first"] is None:
                record["first"] = time.perf_counter() - t0
            if frame.get("type") == "chunk":
                record["seqs"].append(frame.get("seq"))
                if frame.get("final"):
                    record["finals"] += 1
                    record["final"] = frame
                    record["total"] = time.perf_counter() - t0
            elif frame.get("type") == "done":
                record["done"] = frame
            else:
                record["error"] = frame
    except (OSError, ReproError) as exc:
        record["error"] = repr(exc)
    return record


def _connection(port: int, inputs: Inputs, conn: int, started: float,
                seconds: float, records: list, spans=NO_SPANS, rounds=None) -> None:
    from repro.serve import ServeClient

    rng = np.random.default_rng([inputs.seed, 31, conn])
    done = 0
    with ServeClient(HOST, port) as client:
        while (time.perf_counter() - started < seconds if rounds is None
               else done < rounds):
            # each connection shuffles its own rounds, so heavy requests on
            # the two connections overlap at random, not in a locked phase
            for kind in rng.permutation(ROUND):
                kind = str(kind)
                q = int(rng.integers(len(inputs.text_queries) if kind == "text" else POOL))
                with spans.span(f"serve.request.{kind}", request=(conn, len(records))):
                    records.append(request(client, inputs, kind, q))
            done += 1


def load(port: int, inputs: Inputs, seconds: float | None, spans=NO_SPANS,
         rounds: int | None = None) -> tuple[list, float]:
    """Two connections in a closed loop for ``seconds`` (or ``rounds``
    whole rounds each); returns the request records and the wall time."""
    per_conn = [[] for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    threads = [threading.Thread(target=_connection,
                                args=(port, inputs, c, started, seconds or 0.0,
                                      per_conn[c], spans, rounds))
               for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
    wall = time.perf_counter() - started
    if any(t.is_alive() for t in threads):
        raise RuntimeError("serve load connection did not finish")
    return [r for records in per_conn for r in records], wall


def run(seed: int, seconds: float) -> Outcome:
    from repro.serve import ServeClient

    inputs = Inputs(seed, OBJECTS)
    directory = common.WORK / f"serve-db-{seed}"
    save_database(inputs, directory)
    out = Outcome()
    setups = []
    log_path = common.WORK / f"serve-{seed}.log"
    with open(log_path, "w") as log:
        server = None
        try:
            for _ in range(common.SETUP_REPEATS):
                if server is not None:
                    code = server.stop()
                    if code != 0:
                        out.violate(f"server exited with code {code} after set-up")
                server = Server(directory, log)
                setups.append(server.setup_s)
            records, wall = load(server.port, inputs, seconds)
            with ServeClient(HOST, server.port) as client:
                in_flight = client.stats()["server"]["pool_in_flight"]
            rss = common.peak_rss_mb(server.proc.pid)
        finally:
            code = server.stop() if server is not None else 0
            shutil.rmtree(directory, ignore_errors=True)
    if in_flight != 0:
        out.violate(f"stats frame shows {in_flight} pool requests in flight after the load")
    if code != 0:
        out.violate(f"server exited with code {code}")

    out.attempted = len(records)
    check(inputs, records, out)
    ok = [r for r in records if r["total"] is not None and r["error"] is None]
    prefinal = sum(len(r["seqs"]) - r["finals"] for r in records)
    if prefinal < 1:
        out.violate("no pre-final chunk streamed in the run")
    out.metrics = {
        "setup_s": (common.median(setups), "s"),
        "qps": (len(ok) / wall, "1/s"),
        "p50_ms": (common.median([r["total"] for r in ok]) * 1000.0, "ms"),
        "rss_mb": (rss, "MB"),
    }
    firsts = [r["first"] * 1000 for r in ok]
    out.report = [
        f"serve: {len(records)} requests on {CONNECTIONS} connections in {wall:.2f}s, "
        f"{prefinal} pre-final chunks, setups " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        "serve: " + "  ".join(
            common.describe_ms(f"{k}_p50_ms", [r["total"] for r in ok if r["kind"] == k])
            for k in ("fa", "ta", "nra", "ca", "text")),
        f"serve: first_chunk_p50_ms={common.median(firsts):.3f} "
        + common.describe_pct("first_chunk_p99_ms", firsts, 99.0) + f" (n={len(firsts)})",
    ]
    return out


def check(inputs: Inputs, records: list, out: Outcome) -> None:
    """Stream shape of every request, and each final against the oracles."""
    text_oracle = None
    for r in records:
        label = f"serve {r['kind']} query {r['q']}"
        if r["error"] is not None or r["final"] is None:
            out.fail(f"{label}: {r['error'] or 'no final chunk'}")
            continue
        if r["seqs"] != list(range(len(r["seqs"]))):
            out.miss(f"{label}: chunk numbers {r['seqs']}")
            continue
        if r["finals"] != 1 or not r["seqs"] or r["final"]["seq"] != r["seqs"][-1]:
            out.miss(f"{label}: {r['finals']} final chunks, final not last")
            continue
        if (r["done"] or {}).get("status") != "complete":
            out.miss(f"{label}: stream ended with {r['done']}")
            continue
        items = [(int(obj), float(score)) for obj, score in r["final"]["items"]]
        if r["kind"] == "text":
            if text_oracle is None:
                text_oracle = oracles.BM25Oracle(
                    [d.token_ids for d in inputs.collection.documents])
            scores = text_oracle.scores(inputs.text_queries[r["q"]].term_ids)
            stats = r["final"].get("stats", {})
            if stats.get("switched") or not stats.get("terms_large"):
                problem = oracles.check_exact(items, scores, TOP_N, scores > 0)
            else:
                problem = oracles.check_bounded(items, scores, TOP_N)
        else:
            scores = oracles.feature_scores(inputs.vectors, inputs.queries[r["q"]])
            problem = check_answer(r["kind"], items, scores)
        if problem is not None:
            out.miss(f"{label}: {problem}")


def layers(seed: int, spans, overhead: bool, out: Outcome) -> tuple[dict, list]:
    """Per-layer metrics of the serving path: ``AnytimeRunner`` stepped
    in-process, and the wire's share of the first-chunk latency.  Each
    runner's final chunk and each streamed answer is checked into
    ``out``."""
    from repro.core.database import MMDatabase
    from repro.serve import AnytimeRunner, ServeClient

    inputs = Inputs(seed, OBJECTS)
    directory = common.WORK / f"serve-db-{seed}"
    save_database(inputs, directory)
    db = MMDatabase.load(directory)
    sample = range(0, POOL, 16)
    firsts = {}
    for q in sample:
        for engine in ("ta", "nra", "ca"):
            runner = AnytimeRunner(db.feature_sources(inputs.queries[q]), TOP_N, engine,
                                   chunk_depth=CHUNK_DEPTH)
            with spans.span(f"serve.runner_{engine}", request=q):
                with spans.span(f"serve.step_first.{engine}", request=q):
                    t0 = time.perf_counter()
                    chunk = runner.step()
                    if engine == "ta":
                        firsts[q] = time.perf_counter() - t0
                while not chunk.final:
                    chunk = runner.step()
            out.attempted += 1
            problem = check_answer(engine, chunk.items,
                                   oracles.feature_scores(inputs.vectors, inputs.queries[q]))
            if problem is not None:
                out.miss(f"serve.runner_{engine} query {q}: {problem}")
    db.close()
    lines = []
    wire = []
    with open(common.WORK / f"serve-{seed}.log", "w") as log:
        server = Server(directory, log)
        try:
            records = []
            with ServeClient(HOST, server.port) as client:
                for q in sample:
                    with spans.span("serve.wire_ta", request=q):
                        records.append(request(client, inputs, "ta", q))
                    if records[-1]["first"] is not None:
                        wire.append(records[-1]["first"] - firsts[q])
            out.attempted += len(records)
            check(inputs, records, out)
            if overhead:
                lines.append(common.overhead_line(
                    "serve", 2 * CONNECTIONS * len(ROUND),
                    lambda recorder: load(server.port, inputs, None, recorder, rounds=2),
                    spans))
        finally:
            server.stop()
            shutil.rmtree(directory, ignore_errors=True)

    metrics = {"serve.step_first_ms": spans.median_ms("serve.step_first.ta")}
    for engine in ("ta", "nra", "ca"):
        metrics[f"serve.runner_{engine}_ms"] = spans.median_ms(f"serve.runner_{engine}")
    metrics["serve.wire_ms"] = (common.median(wire) * 1000.0, "ms")
    return metrics, lines
