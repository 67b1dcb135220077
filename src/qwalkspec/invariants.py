"""Cospectrality profiles and pairwise comparison of walk-support invariants.

A profile holds the exact characteristic polynomials of A, S+(U), S+(U^2)
and S+(U^3).  Cospectrality is decided by exact integer coefficient
equality, never by comparing floating-point root multisets: the entire value
of the invariant is exactness.

Each polynomial comes from the cheapest exact route:

* A and S+(U^3): ``char_poly`` of the matrix (Berkowitz, or the modular
  Hessenberg/CRT backend with a Hadamard-bounded prime count);
* S+(U): ``closed_form_charpoly_su``, an integer polynomial composition of
  the adjacency char poly;
* S+(U^2): ``closed_form_charpoly_su2`` for k > 2; at k = 2, where
  S+(U^2) = S+(U)^2, the Graeffe root-squaring of the S+(U) polynomial.

None of these rounds.  The brute-force polynomials stay one call away, as
``char_poly(support_u(a))`` and ``char_poly(support_u_power(a, 2))`` or
``qwalkspec spectrum --form charpoly``, and the tests hold the two routes
equal.

A cospectral verdict on all four invariants proves nothing about
isomorphism; reports say "cospectral", not "isomorphic".

``batch_compare`` profiles a corpus in worker processes (its ``threads``
argument, the CLI's ``--threads``), not threads: the modular char poly of
S+(U^3) runs in numpy calls too short to release the interpreter lock for
long, so threads would not overlap.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .arcspace import build_arc_space
from .errors import HypothesisError
from .graphs import Graph
from .intmat import char_poly
from .polynomials import CharPoly, poly_graeffe
from .supports import (
    _require_walk_hypotheses,
    adjacency_charpoly,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    support_u_power,
)

log = logging.getLogger(__name__)

INVARIANT_ORDER = ("a", "s1", "s2", "s3")


@dataclass(frozen=True)
class InvariantProfile:
    graph_id: str
    n: int
    k: int
    charpoly_a: CharPoly
    charpoly_s1: CharPoly
    charpoly_s2: CharPoly
    charpoly_s3: CharPoly

    def charpoly(self, which: str) -> CharPoly:
        return getattr(self, f"charpoly_{which}")

    def to_json(self) -> dict:
        return {
            "id": self.graph_id,
            "n": self.n,
            "k": self.k,
            "charpoly_a": self.charpoly_a.to_json_list(),
            "charpoly_s1": self.charpoly_s1.to_json_list(),
            "charpoly_s2": self.charpoly_s2.to_json_list(),
            "charpoly_s3": self.charpoly_s3.to_json_list(),
        }


@dataclass(frozen=True)
class CompareReport:
    pair: Tuple[str, str]
    verdicts: dict  # invariant -> "cospectral" | "distinguished"
    distinguishing_invariant: Optional[str]

    def to_json(self) -> dict:
        return {
            "ids": list(self.pair),
            "verdicts": dict(self.verdicts),
            "distinguishing_invariant": self.distinguishing_invariant,
        }


@dataclass(frozen=True)
class BatchResult:
    pairs: List[CompareReport]
    skipped: List[Tuple[str, str]]  # (graph id, reason)

    def to_json(self) -> dict:
        return {
            "pairs": [r.to_json() for r in self.pairs],
            "skipped": [{"id": i, "reason": r} for (i, r) in self.skipped],
        }


def profile(g: Graph, graph_id: str) -> InvariantProfile:
    """All four exact char polys of a connected regular graph with k >= 2."""
    try:
        k = _require_walk_hypotheses(g, 2)
    except HypothesisError as e:
        raise HypothesisError(f"{graph_id}: {e}") from None
    log.debug("profiling %s (n=%d, k=%d)", graph_id, g.n, k)
    cp_a = adjacency_charpoly(g)
    cp_s1 = closed_form_charpoly_su(g, cp_a)
    if k > 2:
        cp_s2 = closed_form_charpoly_su2(g, cp_a)
    else:
        # k = 2: W = 2 S+(U), so S+(U^2) = S+(U)^2 and its roots are the squares.
        cp_s2 = CharPoly(tuple(poly_graeffe(cp_s1.coeffs)))
    return InvariantProfile(
        graph_id=graph_id,
        n=g.n,
        k=k,
        charpoly_a=cp_a,
        charpoly_s1=cp_s1,
        charpoly_s2=cp_s2,
        charpoly_s3=char_poly(support_u_power(build_arc_space(g), 3)),
    )


def compare(p: InvariantProfile, q: InvariantProfile) -> CompareReport:
    """Per-invariant exact cospectrality verdicts, in the order A, S1, S2, S3."""
    verdicts = {}
    distinguishing = None
    for which in INVARIANT_ORDER:
        same = p.charpoly(which).coeffs == q.charpoly(which).coeffs
        verdicts[which] = "cospectral" if same else "distinguished"
        if not same and distinguishing is None:
            distinguishing = which
    return CompareReport((p.graph_id, q.graph_id), verdicts, distinguishing)


def _build(item: Tuple[str, Graph]):
    """The profile of one corpus graph, or (id, reason) if it breaks a hypothesis."""
    gid, g = item
    try:
        return profile(g, gid)
    except HypothesisError as e:
        return (gid, str(e))


def batch_compare(
    corpus: Sequence[Tuple[str, Graph]],
    include_cross_class: bool = False,
    threads: Optional[int] = None,
) -> BatchResult:
    """Compare all corpus pairs sharing (n, k).

    Graphs violating the profile hypotheses are skipped with a diagnostic.
    Pairs with different (n, k) are trivially distinguished and omitted
    unless include_cross_class is set.  Output order is deterministic:
    lexicographic by id pair.

    ``threads`` worker processes profile the graphs (default: the CPUs this
    process may run on), never more than there are graphs; with one, the
    graphs are profiled in this process.  An exception a worker raises
    reaches the caller.  The workers are forked, so they start with numpy
    and qwalkspec imported; spawned ones would import them again, which
    takes longer than profiling a small graph.
    """
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(corpus), threads or 1)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Largest graphs first, so the slowest profile does not start last.
        order = sorted(range(len(corpus)), key=lambda i: -corpus[i][1].edge_count)
        results: list = [None] * len(corpus)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            for i, r in zip(order, pool.map(_build, [corpus[i] for i in order])):
                results[i] = r
    else:
        results = [_build(item) for item in corpus]
    profiles = [r for r in results if isinstance(r, InvariantProfile)]
    skipped: List[Tuple[str, str]] = [r for r in results if not isinstance(r, InvariantProfile)]

    reports = []
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            p, q = profiles[i], profiles[j]
            if not include_cross_class and (p.n, p.k) != (q.n, q.k):
                continue
            if p.graph_id > q.graph_id:
                p, q = q, p
            reports.append(compare(p, q))
    reports.sort(key=lambda r: r.pair)
    return BatchResult(reports, skipped)


def batch_to_json(result: BatchResult) -> str:
    return json.dumps(result.to_json(), indent=2)


def batch_to_csv(result: BatchResult) -> str:
    """One row per compared pair."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["id1", "id2", "a", "s1", "s2", "s3", "distinguishing_invariant"]
    )
    for r in result.pairs:
        writer.writerow(
            [r.pair[0], r.pair[1]]
            + [r.verdicts[w] for w in INVARIANT_ORDER]
            + [r.distinguishing_invariant or ""]
        )
    return buf.getvalue()
