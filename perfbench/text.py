"""``text`` workload: one caller in a closed loop runs ``MMDatabase.search``.

The database is a 20k-document FT-like synthetic corpus with a ``year``
attribute column, fragmented (paper Step 1), sharded into two document
ranges, saved and reopened with ``MMDatabase.load``.  Each round of ten
searches runs eight under the default ``auto`` strategy, one under
``parallel`` and one under an attribute filter (STOP AFTER); queries are
drawn with Zipf popularity from a pool of topical queries.

The Zipf exponent and the strategy shares are assumptions of this
benchmark, not measurements: the repository has no query log.  ``auto``
carries most calls because it is the default strategy; one call in ten
each under ``parallel`` and the filter gives each of them about 350
samples in a 12 s run, enough for a steady median of its own.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from . import common, oracles
from .common import NO_SPANS, TOP_N, Outcome

POOL = 1024
#: assumed query popularity (no query log to fit it to): a mild skew, so
#: that the stream both repeats queries and keeps reaching new ones
ZIPF = 0.5
ROUND = ("auto", "auto", "auto", "auto", "parallel",
         "auto", "auto", "auto", "auto", "filter")
SHARDS = 2
YEARS = (1990, 2020)
FILTER_WIDTH = 10
#: fewer set-ups than the other workloads: each one takes seconds
SETUP_REPEATS = 3


class Inputs:
    """Everything the workload feeds the program, made from the seed."""

    def __init__(self, seed: int) -> None:
        from repro.workloads import SyntheticCollection, generate_queries, trec

        self.seed = seed
        self.collection = SyntheticCollection.generate(trec.ft_like(1.0, seed=seed))
        rng = np.random.default_rng([seed, 11])
        self.years = rng.integers(YEARS[0], YEARS[1], size=self.collection.n_docs)
        self.queries = generate_queries(self.collection, n_queries=POOL,
                                        seed=seed + 1).queries
        self.texts = [q.text(self.collection) for q in self.queries]
        weights = 1.0 / np.power(np.arange(1, POOL + 1, dtype=np.float64), ZIPF)
        self._popularity = rng.permutation(POOL)
        self._weights = weights / weights.sum()
        self._rng = np.random.default_rng([seed, 12])

    def rounds(self):
        """Endless rounds of (kind, query index, year range) operations."""
        while True:
            picks = self._popularity[self._rng.choice(POOL, size=len(ROUND),
                                                      p=self._weights)]
            los = self._rng.integers(YEARS[0], YEARS[1] - FILTER_WIDTH + 1,
                                     size=len(ROUND))
            yield [(kind, int(q), (int(lo), int(lo) + FILTER_WIDTH - 1))
                   for kind, q, lo in zip(ROUND, picks, los)]


def setup(inputs: Inputs, spans=NO_SPANS):
    """Build, fragment, shard, save and reopen the database; warm the
    sparse index, the shards and the parallel pool.  Returns (db, seconds)."""
    from repro.core.database import MMDatabase

    directory = common.WORK / f"text-db-{inputs.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    started = time.perf_counter()
    with spans.span("ir.index_build"):
        db = MMDatabase.from_collection(inputs.collection)
    db.set_attribute("year", inputs.years)
    with spans.span("fragmentation.fragment"):
        db.fragment()
    with spans.span("parallel.shard"):
        db.shard(SHARDS)
    with spans.span("core.save"):
        db.save(directory)
    db.close()
    with spans.span("core.load"):
        db = MMDatabase.load(directory)
    db.shard(SHARDS)
    if not db.fragmented.large.has_index:
        db.fragmented.large.build_sparse_index()
    db.search(inputs.texts[0], n=TOP_N)
    db.search(inputs.texts[0], n=TOP_N, strategy="parallel")
    seconds = time.perf_counter() - started
    shutil.rmtree(directory, ignore_errors=True)
    return db, seconds


def execute(db, inputs: Inputs, op):
    kind, q, (lo, hi) = op
    if kind == "auto":
        return db.search(inputs.texts[q], n=TOP_N)
    if kind == "parallel":
        return db.search(inputs.texts[q], n=TOP_N, strategy="parallel")
    return db.search(inputs.texts[q], n=TOP_N, attr_filter=("year", lo, hi))


def run(seed: int, seconds: float) -> Outcome:
    inputs = Inputs(seed)
    setups = []
    db = None
    for _ in range(SETUP_REPEATS):
        if db is not None:
            db.close()
            db = None
        db, took = setup(inputs)
        setups.append(took)
    out = Outcome()
    records = []  # (op, latency seconds, answer items | None, stats)
    rounds = inputs.rounds()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for op in next(rounds):
            t0 = time.perf_counter()
            try:
                result = execute(db, inputs, op).result
            except Exception as exc:  # a failed search is counted, not fatal
                records.append((op, time.perf_counter() - t0, None, repr(exc)))
                continue
            elapsed = time.perf_counter() - t0
            records.append((op, elapsed,
                            [(i.obj_id, i.score) for i in result.items],
                            result.stats))
    wall = time.perf_counter() - started
    rss = common.peak_rss_mb()
    db.close()

    out.attempted = len(records)
    done = [r for r in records if r[2] is not None]
    latencies = [r[1] for r in done]
    check(inputs, records, out)
    by_kind = {kind: [r[1] for r in done if r[0][0] == kind]
               for kind in ("auto", "parallel", "filter")}
    # the median is taken over the default strategy alone: pooled with
    # the faster parallel and filtered searches it sits on the step
    # between short and long queries and moved by half between seeds
    out.metrics = {
        "setup_s": (common.median(setups), "s"),
        "qps": (len(done) / wall, "1/s"),
        "p50_ms": (common.median(by_kind["auto"]) * 1000.0, "ms"),
        "rss_mb": (rss, "MB"),
    }
    seen, repeats = set(), 0
    for op, *_ in records:
        key = op if op[0] == "filter" else op[:2]
        repeats += key in seen
        seen.add(key)
    auto_ms = [x * 1000 for x in by_kind["auto"]]
    out.report = [
        f"text: {len(records)} searches in {wall:.2f}s, setups "
        + ", ".join(f"{s:.3f}" for s in setups) + " s",
        f"text: p50_ms={common.median(auto_ms):.3f} "
        + common.describe_pct("p99_ms", auto_ms, 99.0)
        + f" (auto, n={len(auto_ms)}); all strategies pooled: "
        + common.describe_ms("search_ms", latencies),
        "text: " + "  ".join(common.describe_ms(f"{k}_ms", v) for k, v in by_kind.items()),
        f"text: repeat share {repeats / max(1, len(records)):.3f} "
        f"(requests seen earlier in this assumed stream)",
    ]
    return out


def oracle(inputs: Inputs) -> oracles.BM25Oracle:
    return oracles.BM25Oracle([d.token_ids for d in inputs.collection.documents])


def answer_problem(inputs: Inputs, kind: str, items, stats, scores,
                   years=None) -> str | None:
    """One answer against the oracle scores of its query: ``parallel``
    answers, and ``auto`` (indexed) answers that switched or had no
    large-fragment terms, are the oracle top-n; other ``auto`` answers
    are sorted lower bounds; ``filter`` answers are the top-n of the
    documents whose year lies in ``years``."""
    candidates = scores > 0
    if kind == "filter":
        lo, hi = years
        in_range = candidates & (inputs.years >= lo) & (inputs.years <= hi)
        return oracles.check_exact(items, scores, TOP_N, in_range)
    if kind == "parallel" or stats.get("switched") or not stats.get("terms_large"):
        return oracles.check_exact(items, scores, TOP_N, candidates)
    return oracles.check_bounded(items, scores, TOP_N)


def check(inputs: Inputs, records, out: Outcome) -> None:
    """Every answer against the BM25 oracle."""
    bm25 = oracle(inputs)
    by_query: dict[int, list] = {}
    for record in records:
        by_query.setdefault(record[0][1], []).append(record)
    for q, group in by_query.items():
        scores = bm25.scores(inputs.queries[q].term_ids)
        for (kind, _, years), _lat, items, stats in group:
            if items is None:
                out.fail(f"text {kind} query {q}: {stats}")
                continue
            problem = answer_problem(inputs, kind, items, stats, scores, years)
            if problem is not None:
                out.miss(f"text {kind} query {q}: {problem}")


def layers(seed: int, spans, overhead: bool, out: Outcome) -> tuple[dict, list]:
    """Per-layer metrics of the text path, from spans around direct calls
    into fragmentation, parallel, core and storage; every answer of those
    calls is checked against the oracle into ``out``."""
    from repro.fragmentation import FragmentedExecutor, QualityCheck, Strategy
    from repro.parallel import ExecutorPool, parallel_topn
    from repro.storage.stats import CostCounter

    inputs = Inputs(seed)
    db, _took = setup(inputs, spans)
    executor = FragmentedExecutor(db.fragmented, db.model,
                                  QualityCheck(sensitivity=db.config.switch_sensitivity))
    pool = ExecutorPool(workers=4, kind="thread", max_queries=8)
    bm25 = oracle(inputs)
    sample = range(0, POOL, 4)
    overheads, tuples, pages, hits, overlaps = [], [], [], [], []
    try:
        for q in sample:
            tids = [db.index.vocabulary.term_id(t) for t in inputs.texts[q].split()]
            scores = bm25.scores(inputs.queries[q].term_ids)
            with CostCounter.activate() as cost:
                with spans.span("fragmentation.indexed", request=q):
                    indexed = executor.query(tids, TOP_N, Strategy.INDEXED)
            tuples.append(cost.tuples_read)
            pages.append(cost.page_reads)
            hits.append(cost.buffer_hits)
            _check_layer(inputs, out, "fragmentation.indexed", q, "auto", indexed, scores)
            with spans.span("core.search", request=q):
                answer = db.search(inputs.texts[q], n=TOP_N).result
            _check_layer(inputs, out, "core.search", q, "auto", answer, scores)
            # the facade's own share: best of three, interleaved, of the
            # facade call minus the same call made directly to the layer
            direct, facade = [], []
            for _ in range(3):
                t0 = time.perf_counter()
                executor.query(tids, TOP_N, Strategy.INDEXED)
                direct.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                db.search(inputs.texts[q], n=TOP_N)
                facade.append(time.perf_counter() - t0)
            overheads.append(min(facade) - min(direct))
            with spans.span("parallel.query", request=q):
                with pool.admit():
                    shared = parallel_topn(db.sharded, tids, db.model, TOP_N, pool=pool)
            _check_layer(inputs, out, "parallel.query", q, "parallel", shared, scores)
            overlaps.append(oracles.overlap(_items(answer), scores, TOP_N))
        lines = []
        if overhead:
            lines.append(_overhead(db, inputs, spans))
    finally:
        pool.close()
        db.close()
    first = {name: spans.durations(name)[0] for name in
             ("ir.index_build", "fragmentation.fragment", "parallel.shard",
              "core.save", "core.load")}
    metrics = {
        "ir.index_build_s": (first["ir.index_build"], "s"),
        "fragmentation.fragment_s": (first["fragmentation.fragment"], "s"),
        "parallel.shard_s": (first["parallel.shard"], "s"),
        "core.save_s": (first["core.save"], "s"),
        "core.load_s": (first["core.load"], "s"),
        "fragmentation.indexed_ms": spans.median_ms("fragmentation.indexed"),
        "parallel.query_ms": spans.median_ms("parallel.query"),
        "core.search_overhead_ms": (common.median(overheads) * 1000, "ms"),
        "storage.tuples_read": (float(np.mean(tuples)), "count"),
        "storage.page_reads": (float(np.mean(pages)), "count"),
        "storage.buffer_hit_ratio": (sum(hits) / max(1, sum(hits) + sum(pages)), "ratio"),
        "fragmentation.overlap_at_n": (float(np.mean(overlaps)), "ratio"),
    }
    return metrics, lines


def _items(result) -> list:
    return [(i.obj_id, i.score) for i in result.items]


def _check_layer(inputs: Inputs, out: Outcome, layer: str, q: int, kind: str,
                 result, scores) -> None:
    out.attempted += 1
    problem = answer_problem(inputs, kind, _items(result), result.stats, scores)
    if problem is not None:
        out.miss(f"{layer} query {q}: {problem}")


def _overhead(db, inputs: Inputs, spans) -> str:
    rounds = inputs.rounds()
    ops = [op for _ in range(20) for op in next(rounds)]

    def batch(recorder):
        for i, op in enumerate(ops):
            with recorder.span("core.search." + op[0], request=i):
                execute(db, inputs, op)

    return common.overhead_line("text", len(ops), batch, spans)
