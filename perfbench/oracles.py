"""Answers computed apart from the program, and the checks against them.

Nothing here reads the program's index, sources or engines: the BM25
oracle works from each document's raw token ids, the feature oracle from
the raw feature vectors.  Scores are compared with a relative tolerance,
so a later change that reorders floating-point sums is not failed;
rankings are compared tie-aware, with ties broken by ascending id.
"""

from __future__ import annotations

import math

import numpy as np

#: BM25 parameters and idf variant of the program's default model
K1 = 1.2
B = 0.75
#: relative score tolerance
TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class BM25Oracle:
    """BM25 (k1=1.2, b=0.75, idf = log(1 + (N - df + 0.5) / (df + 0.5)))
    over the raw token ids of a collection's documents."""

    def __init__(self, token_id_docs: list[np.ndarray]) -> None:
        lengths = np.array([len(t) for t in token_id_docs], dtype=np.int64)
        tokens = np.concatenate(token_id_docs).astype(np.int64)
        doc_of = np.repeat(np.arange(len(lengths)), lengths)
        order = np.argsort(tokens, kind="stable")
        self._terms = tokens[order]
        self._docs = doc_of[order]
        self.n_docs = len(lengths)
        self._dl = lengths.astype(np.float64)
        self._avgdl = float(self._dl.mean())

    def scores(self, term_ids) -> np.ndarray:
        """Dense score array; documents without a query term score 0."""
        acc = np.zeros(self.n_docs)
        for tid in sorted(set(int(t) for t in term_ids)):
            lo = np.searchsorted(self._terms, tid, side="left")
            hi = np.searchsorted(self._terms, tid, side="right")
            docs, tf = np.unique(self._docs[lo:hi], return_counts=True)
            if len(docs) == 0:
                continue
            df = len(docs)
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            norm = K1 * (1.0 - B + B * self._dl[docs] / self._avgdl)
            acc[docs] += idf * tf * (K1 + 1.0) / (tf + norm)
        return acc


def l2_similarity(vectors: np.ndarray, query) -> np.ndarray:
    """exp(-d / mean d) of the Euclidean distance d to the query."""
    d = np.linalg.norm(vectors - np.asarray(query, dtype=np.float64), axis=1)
    scale = float(d.mean())
    return np.exp(-d / (scale if scale > 0 else 1.0))


def feature_scores(spaces: dict, queries: dict) -> np.ndarray:
    """SUM over the queried spaces of the l2 similarities."""
    return sum(l2_similarity(spaces[name], vec) for name, vec in queries.items())


def oracle_top(scores: np.ndarray, n: int, mask=None) -> list[int]:
    """Top-n ids by (score descending, id ascending) among ``mask``."""
    ids = np.nonzero(mask)[0] if mask is not None else np.arange(len(scores))
    order = np.lexsort((ids, -scores[ids]))
    return [int(i) for i in ids[order[:n]]]


def _ties_ascending(items) -> str | None:
    for (a, sa), (b, sb) in zip(items, items[1:]):
        if sa == sb and a > b:
            return f"tied objects {a}, {b} not in ascending id order"
    return None


def check_exact(items, scores: np.ndarray, n: int, mask=None) -> str | None:
    """``items`` ([(id, score)]) equal the oracle's top-n, tie-aware."""
    expected = oracle_top(scores, n, mask)
    if len(items) != len(expected):
        return f"{len(items)} items, oracle has {len(expected)}"
    if len({obj for obj, _ in items}) != len(items):
        return "duplicate objects"
    for rank, ((obj, score), want) in enumerate(zip(items, expected)):
        if mask is not None and not mask[obj]:
            return f"object {obj} does not satisfy the filter"
        if not close(score, scores[obj]):
            return f"object {obj} reported {score!r}, oracle {scores[obj]!r}"
        if not close(scores[obj], scores[want]):
            return (f"rank {rank}: object {obj} ({scores[obj]!r}) where the "
                    f"oracle ranks {want} ({scores[want]!r})")
    return _ties_ascending(items)


def check_members(items, scores: np.ndarray, n: int) -> str | None:
    """NRA/CA contract: the top-n *set* is exact (tie-aware) and every
    reported score is a lower bound of the true one."""
    expected = oracle_top(scores, n)
    if len(items) != len(expected):
        return f"{len(items)} items, oracle has {len(expected)}"
    ids = [obj for obj, _ in items]
    if len(set(ids)) != len(ids):
        return "duplicate objects"
    boundary = scores[expected[-1]]
    for obj, score in items:
        if score > scores[obj] and not close(score, scores[obj]):
            return f"object {obj} reported {score!r} above its true {scores[obj]!r}"
        if scores[obj] < boundary and not close(scores[obj], boundary):
            return f"object {obj} ({scores[obj]!r}) is not in the oracle top-{n}"
    return None


def check_bounded(items, scores: np.ndarray, n: int) -> str | None:
    """An unswitched fragment answer: sorted, at most n, distinct, every
    reported score at most the object's true score."""
    if len(items) > n:
        return f"{len(items)} items for n={n}"
    if len({obj for obj, _ in items}) != len(items):
        return "duplicate objects"
    for (_, a), (_, b) in zip(items, items[1:]):
        if b > a:
            return "answer not sorted by score"
    for obj, score in items:
        if score > scores[obj] and not close(score, scores[obj]):
            return f"object {obj} reported {score!r} above its true {scores[obj]!r}"
    return _ties_ascending(items)


def overlap(items, scores: np.ndarray, n: int) -> float:
    """Share of the oracle's top-n ids found in the answer."""
    expected = oracle_top(scores, n)
    if not expected:
        return 1.0
    return len({obj for obj, _ in items} & set(expected)) / len(expected)
