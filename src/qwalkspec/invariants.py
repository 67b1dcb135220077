"""Cospectrality profiles and certified pairwise verdicts on walk-support invariants.

A profile holds the exact characteristic polynomials of A, S+(U), S+(U^2)
and S+(U^3), and ``compare`` decides cospectrality by exact integer
coefficient equality, never by comparing floating-point root multisets: the
entire value of the invariant is exactness.  Each polynomial comes from the
cheapest exact route:

* A and S+(U^3): ``char_poly`` of the matrix (the modular Hessenberg/CRT
  engine with a Hadamard-bounded prime count);
* S+(U): ``closed_form_charpoly_su``, an integer polynomial composition of
  the adjacency char poly;
* S+(U^2): ``closed_form_charpoly_su2`` for k > 2; at k = 2, where
  S+(U^2) = S+(U)^2, the Graeffe root-squaring of the S+(U) polynomial.

None of these routes runs an nk x nk matrix product (see ``supports``)
or rounds.  The brute-force polynomials stay one call away, as
``char_poly(support_u(a))`` and ``char_poly(support_u_power(a, 2))`` or
``qwalkspec spectrum --form charpoly``, and the tests hold the two routes
equal.

``batch_compare`` and the CLI's ``compare`` reach the same verdicts as
``compare`` on the two profiles without any char poly of S+(U^3) in most
pairs.  ``fingerprints`` gives each graph a ``Fingerprint``: the exact A,
S+(U) and S+(U^2) polynomials, S = S+(U^3) packed into bits, and the exact
traces tr(S^i) for i = 1..4, all four from one 0/1 product S.S by
popcounts.  The graphs of one call share one kernel pass per size for their
adjacency char polys, and no kernel pass runs on S.  ``certify`` then
compares A, S+(U) and S+(U^2) coefficient by coefficient, and proves the
S+(U^3) verdict in one of five ways, tried in this order:

* "distinguished", because nk differs, so the degrees do;
* "distinguished", because a trace differs: traces are spectral invariants;
* "cospectral", because A, S+(U) and S+(U^2) agree and ``find_isomorphism``
  returned a map it checked on the adjacency matrices;
* "distinguished", because the char polys differ modulo the first prime of
  dimension nk, a residue computed only for the pairs still open here;
* either, from the exact char polys of both graphs, each computed at most
  once, when none of the above applies.

Equal traces and equal residues alone decide nothing.  ``QWALK_LOG=debug``
logs each pair's S+(U^3) proof as one ``certificate`` line.

A cospectral verdict on all four invariants does not certify isomorphism,
and reports say "cospectral", not "isomorphic", whichever proof decided
S+(U^3).

``batch_compare`` fingerprints a corpus in worker processes (its
``threads`` argument, the CLI's ``--threads``), not threads: a fingerprint
is built in numpy calls too short to release the interpreter lock for long,
so threads would not overlap.  Each worker task holds graphs of one nk, at
most one task per worker for each nk.  The pairwise step, witness searches
included, runs in the calling process.  The S+(U^3) residues of the graphs
of the pairs still open then run in the workers, one stacked kernel pass
per nk, and after them the exact S+(U^3) char polys that some pairs need,
all from the packed supports.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .arcspace import build_arc_space
from .errors import HypothesisError
from .graphs import Graph, adjacency_matrix, find_isomorphism
from .intmat import _stack_slots, char_poly, char_poly_residues, char_polys
from .polynomials import CharPoly, poly_graeffe
from .supports import (
    _charpoly_su,
    _charpoly_su2,
    _require_walk_hypotheses,
    adjacency_charpoly,
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


@dataclass(frozen=True)
class Fingerprint:
    """A graph's exact A, S+(U) and S+(U^2) char polys, and the exact power traces of S = S+(U^3).

    ``s3_traces`` is (tr S, tr S^2, tr S^3, tr S^4), from one 0/1 product
    S.S (``_power_traces``).  ``s3_support`` is S itself, each row packed by
    ``np.packbits`` into whole 64-bit words, so the two polynomials of S,
    each computed on first use only, do not build W^3 again:
    ``s3_residue`` is ``char_poly_residues`` of S, (p, coefficients mod p)
    with p fixed by the dimension nk, and ``charpoly_s3`` is exact.
    """

    graph_id: str
    graph: Graph
    k: int
    charpoly_a: CharPoly
    charpoly_s1: CharPoly
    charpoly_s2: CharPoly
    s3_traces: Tuple[int, int, int, int]
    s3_support: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def charpoly(self, which: str) -> CharPoly:
        return getattr(self, f"charpoly_{which}")

    @cached_property
    def s3_residue(self) -> Tuple[int, Tuple[int, ...]]:
        return char_poly_residues([self._s3_matrix()])[0]

    @cached_property
    def charpoly_s3(self) -> CharPoly:
        return char_poly(self._s3_matrix())

    def _s3_matrix(self) -> np.ndarray:
        """S+(U^3), unpacked from ``s3_support``."""
        return np.unpackbits(self.s3_support, axis=1, count=self.n * self.k)


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


def _checked_k(g: Graph, graph_id: str) -> int:
    """The valency of a connected regular graph with k >= 2; else a HypothesisError naming it."""
    try:
        k = _require_walk_hypotheses(g, 2)
    except HypothesisError as e:
        raise HypothesisError(f"{graph_id}: {e}") from None
    log.debug("profiling %s (n=%d, k=%d)", graph_id, g.n, k)
    return k


def _closed_polys(g: Graph, k: int, cp_a: CharPoly) -> tuple:
    """The exact char polys of S+(U) and S+(U^2), from the closed forms on the adjacency one."""
    cp_s1 = _charpoly_su(g.n, k, cp_a)
    if k > 2:
        return cp_s1, _charpoly_su2(g.n, k, cp_a)
    # k = 2: W = 2 S+(U), so S+(U^2) = S+(U)^2 and its roots are the squares.
    return cp_s1, CharPoly(tuple(poly_graeffe(cp_s1.coeffs)))


def _s3(g: Graph) -> np.ndarray:
    return support_u_power(build_arc_space(g), 3)


def _pack_rows(m: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix as bits, each padded with zeros to whole 64-bit words, as uint8."""
    packed = np.zeros((m.shape[0], -(-m.shape[1] // 64) * 8), dtype=np.uint8)
    packed[:, : -(-m.shape[1] // 8)] = np.packbits(m, axis=1)
    return packed


def _power_traces(s: np.ndarray, rows: np.ndarray) -> Tuple[int, int, int, int]:
    """(tr S, tr S^2, tr S^3, tr S^4) of a square 0/1 matrix S, exactly; ``rows`` is ``_pack_rows(S)``.

    Each entry of S.S is a sum of popcounts of a packed row of S and a packed
    column, a 64-bit word at a time: no float, no BLAS.  Those entries are at
    most nk, so every sum below is at most nk^4, which nk < 2^15 keeps below
    2^60: no int64 wraps.
    """
    nk = s.shape[0]
    assert nk < 2**15, "int64 trace sums could wrap"
    r, c = rows.view(np.uint64), _pack_rows(s.T).view(np.uint64)
    s2 = np.zeros((nk, nk), dtype=np.int64)
    for w in range(r.shape[1]):
        s2 += np.bitwise_count(r[:, w, None] & c[None, :, w])
    st = s.T
    return int(np.trace(s)), int((s * st).sum()), int((s2 * st).sum()), int((s2 * s2.T).sum())


def profile(g: Graph, graph_id: str) -> InvariantProfile:
    """All four exact char polys of a connected regular graph with k >= 2."""
    k = _checked_k(g, graph_id)
    cp_a = adjacency_charpoly(g)
    return InvariantProfile(graph_id, g.n, k, cp_a, *_closed_polys(g, k, cp_a), char_poly(_s3(g)))


def fingerprints(items: Iterable[Tuple[str, Graph]]) -> List[Fingerprint]:
    """What ``certify`` needs of each (id, graph), in order: no char poly of S+(U^3), not even mod p.

    Every graph must be connected and regular with k >= 2; the first that is
    not raises HypothesisError before any char poly runs.  The adjacency char
    polys share one kernel pass per size.
    """
    return _fingerprints([(gid, g, _checked_k(g, gid)) for gid, g in items])


def _fingerprints(checked: list) -> List[Fingerprint]:
    """``fingerprints`` of (id, graph, k) triples whose hypotheses hold."""
    cps_a = char_polys(adjacency_matrix(g) for _, g, _ in checked)
    prints = []
    for (gid, g, k), cp_a in zip(checked, cps_a):
        s3 = _s3(g)
        rows = _pack_rows(s3)
        prints.append(Fingerprint(gid, g, k, cp_a, *_closed_polys(g, k, cp_a),
                                  _power_traces(s3, rows), rows))
    return prints


def compare(p: InvariantProfile, q: InvariantProfile) -> CompareReport:
    """Per-invariant exact cospectrality verdicts, in the order A, S1, S2, S3."""
    return _report(p.graph_id, q.graph_id, {
        which: p.charpoly(which).coeffs == q.charpoly(which).coeffs for which in INVARIANT_ORDER
    })


def certify(p: Fingerprint, q: Fingerprint) -> CompareReport:
    """The verdicts of ``compare`` on the two profiles, each proved by the cheapest evidence.

    A, S+(U) and S+(U^2) compare exact coefficients.  The S+(U^3) verdict
    rests on one of five proofs, tried in this order:

    * different dimensions nk: the char polys differ in degree;
    * a different trace tr(S^i), i <= 4: the spectra differ;
    * equal A, S+(U) and S+(U^2) polys and an isomorphism that
      ``find_isomorphism`` checked: the char polys are equal;
    * different residues mod the first prime of dimension nk: they differ;
    * the exact char polys of both, computed at most once per fingerprint.

    The witness comes before the residues, so a pair of twins needs no
    kernel pass on S+(U^3).  Equal traces or equal residues alone never
    decide the verdict.
    """
    same, s3 = _settle(p, q)
    return _certified(p, q, same, s3 or _residue_proof(p, q))


def _settle(p: Fingerprint, q: Fingerprint) -> tuple:
    """The A, S+(U) and S+(U^2) verdicts, and ``_settle_s3`` of the pair."""
    same = {
        which: p.charpoly(which).coeffs == q.charpoly(which).coeffs for which in ("a", "s1", "s2")
    }
    return same, _settle_s3(p, q, all(same.values()))


def _settle_s3(p: Fingerprint, q: Fingerprint, lower_cospectral: bool) -> Optional[tuple]:
    """The S+(U^3) verdict and a function naming its proof by degree, trace or witness, else None."""
    if p.n * p.k != q.n * q.k:
        return False, lambda: f"degree nk={p.n * p.k}/{q.n * q.k}"
    if p.s3_traces != q.s3_traces:
        i = next(i for i, (s, t) in enumerate(zip(p.s3_traces, q.s3_traces), 1) if s != t)
        return False, lambda: f"trace mismatch i={i}"
    if lower_cospectral:
        stats: dict = {}
        if find_isomorphism(p.graph, q.graph, stats=stats) is not None:
            return True, lambda: f"isomorphism witness nodes={stats['nodes']}"
    return None


def _residue_proof(p: Fingerprint, q: Fingerprint) -> Optional[tuple]:
    """"distinguished" and its proof if the S+(U^3) residues of a same-nk pair differ, else None."""
    if p.s3_residue != q.s3_residue:
        return False, lambda: f"mismatch mod p={p.s3_residue[0]}"
    return None


def _certified(p: Fingerprint, q: Fingerprint, same: dict, s3: Optional[tuple]) -> CompareReport:
    """The report of a settled pair, from the exact S+(U^3) polys if ``s3`` is None."""
    if s3 is None:
        s3 = p.charpoly_s3 == q.charpoly_s3, lambda: "exact char poly bits=%d" % max(
            abs(c).bit_length() for c in p.charpoly_s3.coeffs + q.charpoly_s3.coeffs)
    same["s3"], proof = s3
    if log.isEnabledFor(logging.DEBUG):
        log.debug("certificate %s vs %s: s3 %s by %s",
                  p.graph_id, q.graph_id, _verdict(same["s3"]), proof())
    return _report(p.graph_id, q.graph_id, same)


def _verdict(same: bool) -> str:
    return "cospectral" if same else "distinguished"


def _report(id1: str, id2: str, same: dict) -> CompareReport:
    verdicts = {which: _verdict(same[which]) for which in INVARIANT_ORDER}
    distinguishing = next((which for which in INVARIANT_ORDER if not same[which]), None)
    return CompareReport((id1, id2), verdicts, distinguishing)


def _build(task: List[Tuple[str, Graph]]) -> list:
    """``fingerprints`` of a task's graphs, with (id, reason) for each that breaks a hypothesis."""
    checked, skipped = [], {}
    for i, (gid, g) in enumerate(task):
        try:
            checked.append((gid, g, _checked_k(g, gid)))
        except HypothesisError as e:
            skipped[i] = (gid, str(e).removeprefix(f"{gid}: "))
    prints = iter(_fingerprints(checked))
    return [skipped[i] if i in skipped else next(prints) for i in range(len(task))]


def _s3_residues(prints: List[Fingerprint]) -> list:
    """The ``s3_residue`` of each fingerprint, in one stacked kernel pass per nk."""
    return char_poly_residues([f._s3_matrix() for f in prints])


def _exact_s3(f: Fingerprint) -> CharPoly:
    return f.charpoly_s3


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

    ``threads`` worker processes fingerprint the graphs (default: the CPUs
    this process may run on), never more than there are graphs; with one,
    all work runs in this process.  An exception a worker raises reaches the
    caller.  The workers are forked, so they start with numpy and qwalkspec
    imported; spawned ones would import them again, which takes longer than
    fingerprinting a small graph.  The work goes out in tasks of graphs of
    one nk, largest nk first: a group of same-nk graphs is split into at most
    one task per worker, and a task holds no more graphs than one kernel
    stack of dimension nk, so a worker's memory stays bounded.  Each pair is
    then settled as ``certify`` does.  Degree, traces and witnesses run in
    this process.  The graphs of the pairs they leave open get their S+(U^3)
    residues from the same workers, one task and one stacked kernel pass per
    nk; the graphs of the pairs whose residues agree too get their exact
    S+(U^3) char polys there after that, each graph once.
    """
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(corpus), threads or 1)
    if workers <= 1:
        return _batch(corpus, include_cross_class, map, 1)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return _batch(corpus, include_cross_class, pool.map, workers)


def _batch(corpus: Sequence[Tuple[str, Graph]], include_cross_class: bool, mapper,
           workers: int) -> BatchResult:
    """``batch_compare``, with ``mapper`` (``map`` or a pool's) running the tasks of ``workers``."""
    results: list = [None] * len(corpus)
    tasks = _tasks(corpus, workers)
    for task, built in zip(tasks, mapper(_build, [[corpus[i] for i in task] for task in tasks])):
        for i, r in zip(task, built):
            results[i] = r
    prints = [r for r in results if isinstance(r, Fingerprint)]
    skipped: List[Tuple[str, str]] = [r for r in results if not isinstance(r, Fingerprint)]

    pairs = []
    for i in range(len(prints)):
        for j in range(i + 1, len(prints)):
            p, q = prints[i], prints[j]
            if not include_cross_class and (p.n, p.k) != (q.n, q.k):
                continue
            if p.graph_id > q.graph_id:
                p, q = q, p
            pairs.append((p, q, *_settle(p, q)))
    # The graphs of the pairs that degree, traces and witnesses leave open, one task per nk.
    groups: dict = {}
    for f in _open(pairs):
        groups.setdefault(f.n * f.k, []).append(f)
    for group, residues in zip(groups.values(), mapper(_s3_residues, groups.values())):
        for f, residue in zip(group, residues):
            vars(f)["s3_residue"] = residue  # where the cached_property keeps its value
    pairs = [(p, q, same, s3 or _residue_proof(p, q)) for p, q, same, s3 in pairs]
    exact = _open(pairs)
    for f, cp in zip(exact, mapper(_exact_s3, exact)):
        vars(f)["charpoly_s3"] = cp  # where the cached_property keeps its value
    reports = [_certified(*pair) for pair in pairs]
    reports.sort(key=lambda r: r.pair)
    return BatchResult(reports, skipped)


def _open(pairs: list) -> List[Fingerprint]:
    """The graphs of the pairs with no S+(U^3) proof yet, each once, largest nk first."""
    graphs = {id(f): f for p, q, _, s3 in pairs if s3 is None for f in (p, q)}.values()
    return sorted(graphs, key=lambda f: -f.n * f.k)


def _tasks(corpus: Sequence[Tuple[str, Graph]], workers: int) -> List[List[int]]:
    """Corpus indices in tasks of one arc count nk each, largest nk first.

    Each group of same-nk graphs splits into tasks of at most
    ceil(group / workers) graphs, and of at most as many as one kernel stack
    of dimension nk holds (``intmat._stack_slots``), which bounds a worker's
    memory and the results it sends back.  A graph that is not regular
    joins the group of its arc count and is skipped inside its task.
    """
    groups: dict = {}
    for i, (_, g) in enumerate(corpus):
        groups.setdefault(2 * g.edge_count, []).append(i)
    tasks = []
    for nk in sorted(groups, reverse=True):
        group = groups[nk]
        size = min(-(-len(group) // workers), _stack_slots(nk))
        tasks += [group[s : s + size] for s in range(0, len(group), size)]
    return tasks


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
