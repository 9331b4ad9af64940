"""``feature-<engine>`` workloads: one caller in a closed loop runs
``MMDatabase.feature_search`` (color and texture spaces, SUM, n=10)
under one engine, fa, ta, nra or ca.

There is one workload per engine, so that each engine's latency and
rate are gated on their own: their latencies differ by fifty times, and
pooled, a tenfold slower TA would hide under NRA's share.  The object
count is large enough that NRA's per-step bookkeeping, not building the
graded sources, sets its latency.
"""

from __future__ import annotations

import time

import numpy as np

from . import common, oracles
from .common import TOP_N, Outcome

OBJECTS = 1000
POOL = 256
#: planted clusters per feature space: with the generators' default 8,
#: the clusters' random layout moved NRA's depth by 6.5% (coefficient of
#: variation over ten seeds); with 32, by 2.2%
CLUSTERS = 32
#: query noise around the anchor object, in units of the feature's spread
NOISE = 0.1
ENGINES = ("fa", "ta", "nra", "ca")
BLOCK_SIZE = 128
#: more set-ups than the other workloads: each takes about 70 ms, and
#: the median of five moved by half between runs of ten seeds
SETUP_REPEATS = 21


class Inputs:
    """A small text collection (the database needs one) with color and
    texture feature spaces over its objects, and a pool of queries each
    anchored at one object's feature vectors."""

    def __init__(self, seed: int, objects: int = OBJECTS) -> None:
        from repro.mm import color_histograms, texture_features
        from repro.workloads import SyntheticCollection, generate_queries

        self.seed = seed
        self.collection = SyntheticCollection.generate(
            n_docs=objects, vocabulary_size=2000, n_topics=8, terms_per_topic=40,
            doc_length_mean=20.0, seed=seed)
        self.color = color_histograms(objects, n_clusters=CLUSTERS, seed=seed + 1)
        self.texture = texture_features(objects, n_clusters=CLUSTERS, seed=seed + 2)
        self.vectors = {"color": self.color.vectors, "texture": self.texture.vectors}
        rng = np.random.default_rng([seed, 21])
        self.queries = []
        for anchor in rng.integers(0, objects, size=POOL):
            self.queries.append({
                name: np.clip(v[anchor] + rng.normal(0.0, NOISE * v.std(), v.shape[1]),
                              0.0, None)
                for name, v in self.vectors.items()})
        # a few text queries over the same objects (used by ``serve``)
        self.text_queries = generate_queries(self.collection, n_queries=64,
                                             seed=seed + 3).queries

    def build(self):
        from repro.core.database import MMDatabase

        db = MMDatabase.from_collection(self.collection)
        db.add_feature_space(self.color)
        db.add_feature_space(self.texture)
        return db


def setup(inputs: Inputs):
    """Build the database and warm it with one query's sources."""
    started = time.perf_counter()
    db = inputs.build()
    db.feature_sources(inputs.queries[0])
    return db, time.perf_counter() - started


def run(seed: int, seconds: float, engine: str) -> Outcome:
    inputs = Inputs(seed)
    setups = []
    db = None
    for _ in range(SETUP_REPEATS):
        if db is not None:
            db.close()
        db, took = setup(inputs)
        setups.append(took)
    out = Outcome()
    records = []  # (query index, engine, latency, items | None, error)
    started = time.perf_counter()
    q = 0
    while time.perf_counter() - started < seconds:
        query = inputs.queries[q % POOL]
        t0 = time.perf_counter()
        try:
            result = db.feature_search(query, n=TOP_N, algorithm=engine).result
        except Exception as exc:  # a failed query is counted, not fatal
            records.append((q % POOL, engine, None, None, repr(exc)))
        else:
            records.append((q % POOL, engine, time.perf_counter() - t0,
                            [(i.obj_id, i.score) for i in result.items], None))
        q += 1
    wall = time.perf_counter() - started
    rss = common.peak_rss_mb()
    db.close()

    out.attempted = len(records)
    check(inputs, records, out)
    latencies = [r[2] for r in records if r[3] is not None]
    out.metrics = {
        "setup_s": (common.median(setups), "s"),
        "qps": (len(latencies) / wall, "1/s"),
        "p50_ms": (common.median(latencies) * 1000.0, "ms"),
        "rss_mb": (rss, "MB"),
    }
    out.report = [
        f"feature-{engine}: {len(records)} queries in {wall:.2f}s, "
        "setups " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        f"feature-{engine}: " + common.describe_ms(f"{engine}_p50_ms", latencies),
    ]
    return out


def check(inputs: Inputs, records, out: Outcome) -> None:
    """FA/TA exact; NRA/CA exact membership with lower-bound scores."""
    cache: dict[int, np.ndarray] = {}
    for q, engine, _lat, items, error in records:
        if items is None:
            out.fail(f"feature {engine} query {q}: {error}")
            continue
        if q not in cache:
            cache[q] = oracles.feature_scores(inputs.vectors, inputs.queries[q])
        problem = check_answer(engine, items, cache[q])
        if problem is not None:
            out.miss(f"feature {engine} query {q}: {problem}")


def check_answer(engine: str, items, scores) -> str | None:
    if engine in ("fa", "ta"):
        return oracles.check_exact(items, scores, TOP_N)
    return oracles.check_members(items, scores, TOP_N)


def layers(seed: int, spans, overhead: bool, out: Outcome) -> tuple[dict, list]:
    """Per-layer metrics of the feature path: sources, the scalar and
    blocked engines called directly, the facade's own share, the chooser
    and the in-process tracer.  Every answer of those calls is checked
    against the oracle into ``out``."""
    from repro.mm import BlockedSource, similarity_scores
    from repro.obs import tracer
    from repro.optimizer import choose_engine
    from repro.storage.stats import CostCounter
    from repro.topn import (
        blocked_combined_topn,
        blocked_nra_topn,
        blocked_threshold_topn,
        combined_topn,
        fagin_topn,
        nra_topn,
        threshold_topn,
    )

    scalar = {"fa": fagin_topn, "ta": threshold_topn, "nra": nra_topn,
              "ca": combined_topn}
    blocked = {"ta": blocked_threshold_topn, "nra": blocked_nra_topn,
               "ca": blocked_combined_topn}
    inputs = Inputs(seed)
    db = inputs.build()
    counts = {f"{e}_{kind}": [] for e in ENGINES for kind in ("sorted", "random")}
    overheads = []
    for q in range(0, POOL, 8):
        query = inputs.queries[q]
        scores = oracles.feature_scores(inputs.vectors, query)
        with spans.span("mm.sources", request=q):
            sources = db.feature_sources(query)
        for engine, fn in scalar.items():
            with CostCounter.activate() as cost:
                with spans.span(f"topn.{engine}", request=q):
                    result = fn(sources, TOP_N)
            counts[f"{engine}_sorted"].append(cost.sorted_accesses)
            counts[f"{engine}_random"].append(cost.random_accesses)
            check_layer(out, f"topn.{engine}", q, engine, result.items, scores)
        # the facade's own share: best of three, interleaved, of a ta
        # feature_search minus building its sources and running ta directly
        parts, facade = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            threshold_topn(db.feature_sources(query), TOP_N)
            parts.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            db.feature_search(query, n=TOP_N, algorithm="ta")
            facade.append(time.perf_counter() - t0)
        overheads.append(min(facade) - min(parts))
        grades = [BlockedSource.from_array(similarity_scores(inputs.vectors[name], vec, "l2"),
                                           BLOCK_SIZE, name=name)
                  for name, vec in query.items()]
        for engine, fn in blocked.items():
            with spans.span(f"topn.blocked_{engine}", request=q):
                result = fn(grades, TOP_N)
            check_layer(out, f"topn.blocked_{engine}", q, engine, result.items, scores)
        with spans.span("optimizer.choose", request=q):
            choose_engine(sources, TOP_N)
        with spans.span("obs.traced_ta", request=q):
            with tracer.trace_session():
                result = db.feature_search(query, n=TOP_N, algorithm="ta").result
        check_layer(out, "obs.traced_ta", q, "ta", result.items, scores)
    lines = [_overhead(db, inputs, spans)] if overhead else []
    db.close()

    ms = spans.median_ms
    metrics = {"mm.sources_ms": ms("mm.sources")}
    for engine in ENGINES:
        metrics[f"topn.{engine}_ms"] = ms(f"topn.{engine}")
    for engine in ENGINES:
        for kind in ("sorted", "random"):
            metrics[f"topn.{engine}_{kind}"] = (float(np.mean(counts[f"{engine}_{kind}"])),
                                                "count")
    for engine in blocked:
        metrics[f"topn.blocked_{engine}_ms"] = ms(f"topn.blocked_{engine}")
    metrics["core.feature_overhead_ms"] = (common.median(overheads) * 1000.0, "ms")
    metrics["optimizer.choose_ms"] = ms("optimizer.choose")
    metrics["obs.traced_ta_ms"] = ms("obs.traced_ta")
    return metrics, lines


def check_layer(out: Outcome, layer: str, q: int, engine: str, items, scores) -> None:
    """One answer of a direct layer call (``RankedItem`` list) against
    the oracle scores of its query."""
    out.attempted += 1
    problem = check_answer(engine, [(i.obj_id, i.score) for i in items], scores)
    if problem is not None:
        out.miss(f"{layer} query {q}: {problem}")


def _overhead(db, inputs: Inputs, spans) -> str:
    def batch(recorder):
        for q in range(8):
            for engine in ENGINES:
                with recorder.span(f"core.feature_search.{engine}", request=q):
                    db.feature_search(inputs.queries[q], n=TOP_N, algorithm=engine)

    return common.overhead_line("feature", 8 * len(ENGINES), batch, spans)
