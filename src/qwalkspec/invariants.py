"""Cospectrality profiles and certified pairwise verdicts on walk-support invariants.

A profile holds the exact characteristic polynomials of A, S+(U), S+(U^2)
and S+(U^3), and ``compare`` decides cospectrality by exact integer
coefficient equality, never by comparing floating-point root multisets: the
entire value of the invariant is exactness.  Each polynomial comes from the
cheapest exact route:

* A and S+(U^3): ``char_poly`` of the matrix, which tries the permutation
  route (a signed partial permutation from its cycles, when the row and
  column sum bound r is at most 1, as for S+(U^3) of a cycle), the trace
  route (Newton's identities on exact float64 powers, while r^n < 2^53:
  every A with k >= 2 and k^n < 2^53), then the minimal-polynomial route,
  and falls back to the modular Hessenberg/CRT engine with a
  Hadamard-bounded prime count;
* S+(U): ``closed_form_charpoly_su``, an integer polynomial composition of
  the adjacency char poly;
* S+(U^2): the same closed form at every k >= 2 (``supports._charpoly_su2``),
  which is ``closed_form_charpoly_su2`` for k > 2 and, at k = 2, where
  S+(U^2) = S+(U)^2, squares the S+(U) eigenvalues.

None of these routes runs an nk x nk matrix product (see ``supports``)
or rounds.  The brute-force polynomials stay one call away, as
``char_poly(support_u(a))`` and ``char_poly(support_u_power(a, 2))`` or
``qwalkspec spectrum --form charpoly``, and the tests hold the two routes
equal.

``batch_compare`` and the CLI's ``compare`` reach the same verdicts as
``compare`` on the two profiles without expanding the S+(U) or S+(U^2)
polynomial, and without any char poly of S+(U^3) in most pairs.
``fingerprints`` gives each graph a ``Fingerprint``: the exact A char poly,
the Graeffe square of psi = chi_A / (x - k) (degree n - 1), and the exact
traces tr(S^i) for i = 1..4 of S = S+(U^3), all four from one 0/1 product
S.S by popcounts; S itself is not kept.  The graphs of one call share one
kernel pass per size for those adjacency char polys that fall back to it,
and no kernel pass runs on S.  Some benchmark corpora do reach that pass:
16 of the ``batch_cli`` seeds 1-60 (5, 6, 15, ...) hold a pair of 6-regular
24-vertex circulant twins whose chi_A has Krylov degree 13 > n/2, so it
falls back for "degree".  With ``threads`` 2 or more, ``_deal`` puts the
two twins, the corpus's only 72-edge graphs, in different tasks, which
then share no pass.

``certify`` (one pair) and ``batch_compare`` (all pairs of a corpus) settle
their pairs through one resolver.  By the paper's closed forms (see
``Fingerprint``), A and S+(U) are cospectral exactly when the A char polys
are equal, and S+(U^2) exactly when (n, k) and the Graeffe squares are.
The resolver proves the S+(U^3) verdict in one of four ways, tried in this
order:

* "distinguished", because nk differs, so the degrees do;
* "distinguished", because a trace differs: traces are spectral invariants;
* "cospectral", because A, S+(U) and S+(U^2) agree and ``find_isomorphism``
  returned a map it checked on the adjacency matrices;
* either, from the exact char polys of both graphs.

The first three run in the calling process, pair by pair.  The exact char
polys run after them, only for the graphs of the pairs still open, largest
nk first, dealt into one task per worker (``_deal``), one matrix at a time,
each from S+(U^3) built again from the graph.  Dealt tasks are not
rebalanced while they run, and exact polys are long and uneven, but no
benchmark corpus or SRG family built so far reaches this phase: traces or
witnesses settle every pair there.  Each poly is computed at most once per
graph, however many pairs the graph is in, and a fingerprint never
changes.  Equal traces alone decide nothing.  ``QWALK_LOG=debug`` logs
each pair's S+(U^3) proof as one ``certificate`` line.

A cospectral verdict on all four invariants does not certify isomorphism,
and reports say "cospectral", not "isomorphic", whichever proof decided
S+(U^3).

``batch_compare`` runs on ``threads`` workers (the CLI's ``--threads``): the
calling process plus ``threads - 1`` forked children, not threads, since a
fingerprint is built in numpy calls too short to release the interpreter
lock for long.  Each phase (the fingerprints, the exact polys) is dealt by
``_deal`` into at most ``threads`` tasks; ``_fork_map`` runs the first in
the calling process and each other in a child forked for that phase alone.  ``certify`` runs them all in the calling process.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .arcspace import build_arc_space
from .errors import HypothesisError
from .graphs import Graph, adjacency_matrix, find_isomorphism
from .intmat import char_poly, char_polys
from .polynomials import CharPoly, poly_divide_exact, poly_graeffe
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
    """A graph's exact A char poly, the squares of its other eigenvalues, and the traces of S+(U^3).

    ``psi_squares`` is Graeffe(psi) with psi = chi_A / (x - k): the monic
    polynomial of degree n - 1 whose roots are the lambda^2 over the roots
    lambda of psi.  With chi_A it decides A, S+(U) and S+(U^2) exactly, with
    no degree-nk poly of the closed forms (``supports._charpoly_su`` and
    ``_charpoly_su2``):

    * chi_A fixes n (its degree) and k (its largest root), so equal chi_A
      give equal closed forms.
    * chi_{S+(U)} has degree nk and largest real root k - 1.  Every other
      root has modulus at most k - 1, since the roots of
      t^2 - lambda t + (k - 1) with |lambda| <= k stay inside that bound.  So
      this poly fixes (n, k).  The map psi -> t^(n-1) psi((t^2 + k - 1)/t)
      is linear, and injective because a nonzero polynomial composed with a
      nonconstant rational function is nonzero.  Hence S+(U) is cospectral
      exactly when A is.
    * chi_{S+(U^2)} has spectral radius (k - 1)^2 + c, with c = 1 for k > 2
      and c = 0 at k = 2, strictly increasing in k, so this poly fixes (n, k)
      too.  For every k >= 2, q -> (t - c)^(n-1) q((t + k - 1 - c)^2/(t - c))
      is injective in q = Graeffe(psi) for the same reason.  Hence S+(U^2)
      is cospectral exactly when (n, k) and ``psi_squares`` are equal.  That
      is weaker than A: it sees only the lambda^2, not their signs.

    ``s3_traces`` is (tr S, tr S^2, tr S^3, tr S^4) of S = S+(U^3), from one
    0/1 product S.S (``_power_traces``).  S itself is not kept: the few
    pairs that need its char poly (see the module docstring) build it again.
    """

    graph_id: str
    graph: Graph
    k: int
    charpoly_a: CharPoly
    psi_squares: Tuple[int, ...]
    s3_traces: Tuple[int, int, int, int]

    @property
    def n(self) -> int:
        return self.graph.n


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


def _s3(g: Graph) -> np.ndarray:
    return support_u_power(build_arc_space(g), 3)


def _pack_rows(m: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix as bits, each padded with zeros to whole 64-bit words, as uint8."""
    packed = np.zeros((m.shape[0], -(-m.shape[1] // 64) * 8), dtype=np.uint8)
    packed[:, : -(-m.shape[1] // 8)] = np.packbits(m, axis=1)
    return packed


def _power_traces(s: np.ndarray) -> Tuple[int, int, int, int]:
    """(tr S, tr S^2, tr S^3, tr S^4) of a square 0/1 matrix S, exactly.

    Each entry of S.S is a sum of popcounts of a packed row of S and a packed
    column, a 64-bit word at a time: no float, no BLAS.  Those entries are at
    most nk, so every sum below is at most nk^4, which nk < 2^15 keeps below
    2^60: no int64 wraps.
    """
    nk = s.shape[0]
    assert nk < 2**15, "int64 trace sums could wrap"
    r, c = _pack_rows(s).view(np.uint64), _pack_rows(s.T).view(np.uint64)
    s2 = np.zeros((nk, nk), dtype=np.int64)
    for w in range(r.shape[1]):
        s2 += np.bitwise_count(r[:, w, None] & c[None, :, w])
    st = s.T
    return int(np.trace(s)), int((s * st).sum()), int((s2 * st).sum()), int((s2 * s2.T).sum())


def profile(g: Graph, graph_id: str) -> InvariantProfile:
    """All four exact char polys of a connected regular graph with k >= 2."""
    k = _checked_k(g, graph_id)
    cp_a = adjacency_charpoly(g)
    cp_s1, cp_s2 = _charpoly_su(g.n, k, cp_a), _charpoly_su2(g.n, k, cp_a)
    return InvariantProfile(graph_id, g.n, k, cp_a, cp_s1, cp_s2, char_poly(_s3(g)))


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
        psi_squares = tuple(poly_graeffe(poly_divide_exact(cp_a.coeffs, [-k, 1])))
        prints.append(Fingerprint(gid, g, k, cp_a, psi_squares, _power_traces(_s3(g))))
    return prints


def compare(p: InvariantProfile, q: InvariantProfile) -> CompareReport:
    """Per-invariant exact cospectrality verdicts, in the order A, S1, S2, S3."""
    return _report(p.graph_id, q.graph_id, {
        which: p.charpoly(which).coeffs == q.charpoly(which).coeffs for which in INVARIANT_ORDER
    })


def certify(p: Fingerprint, q: Fingerprint) -> CompareReport:
    """The verdicts of ``compare`` on the two profiles, each proved by the cheapest evidence.

    The S+(U^3) verdict rests on the first proof of the module docstring's
    chain that applies.
    """
    return _certify([(p, q)], map, 1)[0]


def _certify(pairs: List[Tuple[Fingerprint, Fingerprint]], mapper,
             workers: int) -> List[CompareReport]:
    """The ``certify`` report of each pair, in order, by the resolver of the module docstring.

    ``mapper`` (``map`` or ``_fork_map``) runs its exact tasks, in at most
    ``workers`` tasks.
    """
    same = []
    for p, q in pairs:  # the A, S+(U) and S+(U^2) verdicts, by the rules of ``Fingerprint``
        a = p.charpoly_a.coeffs == q.charpoly_a.coeffs
        same.append({"a": a, "s1": a, "s2": (p.n, p.k, p.psi_squares) == (q.n, q.k, q.psi_squares)})
    proofs = [_settle_s3(p, q, all(s.values())) for (p, q), s in zip(pairs, same)]
    exact = _open(pairs, proofs)
    polys = dict(zip(map(id, exact), _dealt(mapper, _exact_s3, exact, workers)))
    reports = []
    for (p, q), s, proof in zip(pairs, same, proofs):
        if proof is None:
            cp, cq = polys[id(p)], polys[id(q)]
            proof = cp == cq, "exact char poly bits=%d" % max(
                abs(c).bit_length() for c in cp.coeffs + cq.coeffs)
        s["s3"], why = proof
        log.debug("certificate %s vs %s: s3 %s by %s", p.graph_id, q.graph_id, _verdict(s["s3"]), why)
        reports.append(_report(p.graph_id, q.graph_id, s))
    return reports


def _settle_s3(p: Fingerprint, q: Fingerprint, lower_cospectral: bool) -> Optional[tuple]:
    """The S+(U^3) verdict and its proof by degree, trace or witness, else None."""
    if p.n * p.k != q.n * q.k:
        return False, f"degree nk={p.n * p.k}/{q.n * q.k}"
    if p.s3_traces != q.s3_traces:
        i = next(i for i, (s, t) in enumerate(zip(p.s3_traces, q.s3_traces), 1) if s != t)
        return False, f"trace mismatch i={i}"
    if lower_cospectral:
        stats: dict = {}
        if find_isomorphism(p.graph, q.graph, stats=stats) is not None:
            return True, f"isomorphism witness nodes={stats['nodes']}"
    return None


def _open(pairs: list, proofs: list) -> List[Fingerprint]:
    """The graphs of the pairs with no S+(U^3) proof yet, each once, largest nk first."""
    graphs = {id(f): f for pair, proof in zip(pairs, proofs) if proof is None for f in pair}.values()
    return sorted(graphs, key=lambda f: -f.n * f.k)


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


def _exact_s3(prints: List[Fingerprint]) -> List[CharPoly]:
    """The exact char poly of the S+(U^3) of each fingerprint's graph, one matrix at a time."""
    return [char_poly(_s3(f.graph)) for f in prints]


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

    ``threads`` workers fingerprint the graphs (default: the CPUs this
    process may run on), never more than there are graphs: the calling
    process plus ``threads - 1`` forked children.  With one, all work runs in
    this process and nothing is forked.  The children are forked, so they
    start with numpy, qwalkspec and the corpus in memory; spawned ones would
    import them again, which takes longer than fingerprinting a small graph.
    The graphs, largest edge count first, are dealt into one task per worker
    (``_deal``).  The pairs are then certified as ``certify`` certifies one
    (see the module docstring), with the exact S+(U^3) polys that some
    pairs need dealt the same way.  Each phase forks its own children
    (``_fork_map``).  A child whose result has been read is reaped
    only once the pairs are certified, so its teardown overlaps the work
    that follows; every child is reaped before this returns or raises.  An
    exception a worker raises reaches the caller with its type and message.
    """
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(corpus), threads or 1)
    if workers <= 1:
        return _batch(corpus, include_cross_class, map, 1)
    finished: list = []  # children whose results were read, reaped once the pairs are certified
    try:
        return _batch(corpus, include_cross_class, partial(_fork_map, finished=finished), workers)
    finally:
        for pid in finished:
            os.waitpid(pid, 0)


def _batch(corpus: Sequence[Tuple[str, Graph]], include_cross_class: bool, mapper,
           workers: int) -> BatchResult:
    """``batch_compare``, with ``mapper`` (``map`` or ``_fork_map``) running the tasks of ``workers``."""
    results: list = [None] * len(corpus)
    order = sorted(range(len(corpus)), key=lambda i: -corpus[i][1].edge_count)
    for i, r in zip(order, _dealt(mapper, _build, [corpus[i] for i in order], workers)):
        results[i] = r
    prints = [r for r in results if isinstance(r, Fingerprint)]
    skipped: List[Tuple[str, str]] = [r for r in results if not isinstance(r, Fingerprint)]

    pairs = []
    for i in range(len(prints)):
        for j in range(i + 1, len(prints)):
            p, q = prints[i], prints[j]
            if include_cross_class or (p.n, p.k) == (q.n, q.k):
                pairs.append((p, q) if p.graph_id <= q.graph_id else (q, p))
    reports = _certify(pairs, mapper, workers)
    reports.sort(key=lambda r: r.pair)
    return BatchResult(reports, skipped)


def _deal(items: list, workers: int) -> List[list]:
    """``items``, sorted largest first, dealt round-robin into at most ``workers`` tasks.

    Task t takes items t, t + workers, t + 2 workers, ..., so every task gets
    a share of the largest items and the tasks differ by at most one item.
    A graph that breaks a hypothesis is dealt like any other and skipped
    inside its task.
    """
    return [items[t::workers] for t in range(min(workers, len(items)))]


def _dealt(mapper, fn, items: list, workers: int) -> list:
    """``fn``'s result for each of ``items``, in order, from ``mapper`` over ``_deal(items, workers)``.

    ``fn`` takes a task, a list of items, and returns one result per item.
    """
    tasks = _deal(items, workers)
    done = list(mapper(fn, tasks))
    return [done[j % len(tasks)][j // len(tasks)] for j in range(len(items))]


def _fork_map(fn, tasks: list, finished: list) -> list:
    """``list(map(fn, tasks))``, with ``tasks[1:]`` each run in a forked child process.

    Each child sends ``pickle((ok, value))`` back over its own pipe and always
    ends with ``os._exit``, so it never returns into the caller's code.  The
    calling process runs ``tasks[0]`` meanwhile, then reads the children in
    task order.  A child that sent a result is appended to ``finished`` for
    the caller to reap, so the caller need not wait while the child tears
    down its memory.  The first error in task order is raised with its own
    type and message; a child that ends without a result is reaped, and
    raises a RuntimeError naming its task and exit status.  Once an error is
    found, the children not yet read are killed and reaped.  It starts no
    thread, so Python's warning on a fork from a multi-threaded process has
    no cause here.
    """
    pids: list = []  # in task order; None once reaped or appended to ``finished``
    pipes: list = []  # the read end of each child's pipe
    try:
        for task in tasks[1:]:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, task, write, pipes)
                pids.append(pid)
            finally:
                os.close(write)
        results = [fn(task) for task in tasks[:1]]
        for t, (pid, read) in enumerate(zip(pids, pipes)):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pids[t] = None
                how = f"exit status {code}" if code >= 0 else f"signal {signal.Signals(-code).name}"
                raise RuntimeError(f"batch task {t + 1} ended with {how} and no result")
            finished.append(pid)
            pids[t] = None
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for read in pipes:
            os.close(read)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(fn, task, write: int, pipes: list) -> None:
    """The body of a ``_fork_map`` child: send ``pickle((ok, fn(task) or its error))`` and exit.

    ``pipes`` are the read ends the child inherited, its own among them.  A
    result that cannot be pickled or sent ends the child with status 1 and
    no result.
    """
    code = 1
    try:
        for fd in pipes:
            os.close(fd)
        try:
            out = True, fn(task)
        except Exception as e:  # sent back, and raised in the caller
            out = False, e
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(out))
        code = 0
    finally:
        os._exit(code)


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
