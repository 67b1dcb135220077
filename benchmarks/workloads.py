"""The four benchmark workloads: inputs from a seed, timed passes, result checks.

Each workload object is built once per run (input generation and golden
loading are part of set-up), warms up with one op, then runs passes.  A pass
times its ops through a ``Recorder`` and returns the raw outputs; ``check``
turns the outputs into one pass/fail flag per op.  Checks run outside the
timed region.

The program only ever receives generated inputs: relabelled ``Graph``
objects, and ``.g6`` files written by this module's own graph6 encoder.
Everything the program is called through is looked up as a module attribute
at call time (``invariants.profile``), so the tracer's shims see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from time import perf_counter

from qwalkspec import cli, generators, invariants
from qwalkspec.graphs import Graph
from qwalkspec.polynomials import CharPoly

import hostspeed
from goldens import spectrum_matches

INVARIANTS = ("a", "s1", "s2", "s3")
ALL_COSPECTRAL = {w: "cospectral" for w in INVARIANTS}

SRG_LADDER = ("shrikhande", "rook:4", "paley:17", "hypercube:5", "rook:5", "circulant:40,1,3,7")
SRG_PAIR = ("shrikhande", "rook:4")
SMALL = (
    "cycle:3", "cycle:4", "cycle:5", "cycle:6", "cycle:20",
    "complete:4", "complete:5", "complete:6", "complete:7",
    "complete_bipartite:3,3", "petersen", "hypercube:3", "hypercube:4",
)
SMALL_RELABELLINGS = 10
VERIFY = (
    "cycle:12", "cycle:30", "complete:7", "complete_bipartite:3,3", "petersen",
    "hypercube:4", "paley:13", "shrikhande", "rook:4",
)
BATCH_THREADS = 2


# ---------------------------------------------------------------------------
# input helpers, independent of the program under test
# ---------------------------------------------------------------------------


def valency(g: Graph) -> int:
    return 2 * len(g.edges) // g.n


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, {(perm[u], perm[v]) for (u, v) in g.edges})


def graph6_line(g: Graph) -> str:
    """graph6 encoding for n <= 62: upper triangle column by column, 6 bits a byte."""
    if g.n > 62:
        raise ValueError("the benchmark's encoder handles n <= 62 only")
    bits = [1 if (i, j) in g.edges else 0 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + v) for v in [g.n] + body)


def write_g6(path: str, graphs) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(graph6_line(g) + "\n" for g in graphs)


def circulant(n: int, connections) -> Graph:
    return Graph(n, {(i, (i + c) % n) for i in range(n) for c in connections})


def timed(fn, *args):
    """(seconds, result) of one op; an exception is returned as the result."""
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as e:  # the op failed; the run goes on and counts it
        result = e
    return perf_counter() - start, result


class Recorder:
    """Times one pass's ops, and the host reference around each group of ops.

    A workload calls ``op`` for every latency sample and ``mark`` between
    groups of ops (one graph's ops, or one profile), so that each sample is
    scaled by the host speed measured close to it (see ``hostspeed.py``).
    ``reference(budget_s)`` times the host reference; each timing may take
    a tenth of the group before it.  ``first`` is the reference timed at the
    end of the previous pass, if any.  Without a reference (trace runs)
    ``mark`` does nothing.
    """

    def __init__(self, reference=None, first=None):
        self.reference = reference
        self.latencies: list = []  # raw seconds
        self._group: list = []  # index into refs of the reference timed before each sample
        self.refs: list = []
        if reference:
            self.refs.append(first if first is not None else reference(0.0))
        self._since = perf_counter()

    def op(self, fn, *args):
        dt, result = timed(fn, *args)
        self.latencies.append(dt)
        self._group.append(len(self.refs) - 1)
        return result

    def mark(self) -> None:
        if self.reference:
            self.refs.append(self.reference(0.1 * (perf_counter() - self._since)))
            self._since = perf_counter()

    def scaled(self) -> list:
        """Latencies in nominal seconds; call after the pass's final ``mark``."""
        return [x * hostspeed.scale(self.refs[g], self.refs[g + 1])
                for x, g in zip(self.latencies, self._group)]


def run_cli(argv):
    """In-process ``qwalkspec`` invocation: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def coefficients(p) -> dict:
    return {w: list(getattr(p, f"charpoly_{w}").coeffs) for w in INVARIANTS}


def matches_golden(p, golden: dict) -> bool:
    return not isinstance(p, Exception) and coefficients(p) == {w: golden[w] for w in INVARIANTS}


def golden_profile(spec: str, entry: dict):
    polys = [CharPoly(tuple(entry[w])) for w in INVARIANTS]
    return invariants.InvariantProfile(spec, entry["n"], entry["k"], *polys)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    op_unit = ""
    latency_op = ""  # what one latency sample times, when it is not one op
    threads = 1  # threads the program runs the ops on

    def __init__(self, seed: int, goldens: dict, workdir: str):
        self.rng = random.Random(f"{self.name}/{seed}")

    def make_inputs(self):
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, inputs, rec: Recorder):
        """Timed through ``rec``: returns the outputs.

        Every pass records the same number of samples, in the same op order.
        """
        raise NotImplementedError

    def check(self, inputs, outputs) -> list:
        """Untimed: one bool per op."""
        raise NotImplementedError


class SrgLadder(Workload):
    name = "srg_ladder"
    why = ("large SRG-like profiles (nk 96-240): brute-force modular charpoly is ~95% of each op;"
           " fewer primes, faster Hessenberg and closed forms in profile must show here")
    op_unit = "one graph profiled"

    def __init__(self, seed, goldens, workdir):
        super().__init__(seed, goldens, workdir)
        self.base = [(spec, generators.parse_generator_spec(spec)) for spec in SRG_LADDER]
        self.expected = {spec: goldens["profiles"][spec] for spec in SRG_LADDER}
        self.verdicts = goldens["verdicts"]["|".join(SRG_PAIR)]

    def make_inputs(self):
        return [(spec, relabelled(g, self.rng)) for spec, g in self.base]

    def warmup(self):
        spec, g = self.make_inputs()[0]
        invariants.profile(g, spec)

    def run_pass(self, inputs, rec):
        outputs = []
        for i, (spec, g) in enumerate(inputs):
            if i:
                rec.mark()
            outputs.append(rec.op(invariants.profile, g, spec))
        first, second = (outputs[SRG_LADDER.index(s)] for s in SRG_PAIR)
        _, report = timed(invariants.compare, first, second)
        return outputs, report

    def check(self, inputs, outputs):
        profiles, report = outputs
        ok = []
        for (spec, _), p in zip(inputs, profiles):
            ok.append(matches_golden(p, self.expected[spec]))
        verdict_ok = not isinstance(report, Exception) and report.verdicts == self.verdicts
        if not verdict_ok:
            for spec in SRG_PAIR:
                ok[SRG_LADDER.index(spec)] = False
        return ok


class RelabelSmall(Workload):
    name = "relabel_small"
    why = ("fresh relabellings of small graphs (nk 6-64) checked against golden profiles:"
           " arc matrices, mat_mul conversions, Berkowitz and per-call overhead dominate")
    op_unit = "one graph profiled and compared with its golden profile"

    def __init__(self, seed, goldens, workdir):
        super().__init__(seed, goldens, workdir)
        self.base = [(spec, generators.parse_generator_spec(spec)) for spec in SMALL]
        self.golden = {spec: golden_profile(spec, goldens["profiles"][spec]) for spec in SMALL}
        self.expected = {spec: goldens["profiles"][spec] for spec in SMALL}

    def make_inputs(self):
        return [(spec, relabelled(g, self.rng)) for spec, g in self.base
                for _ in range(SMALL_RELABELLINGS)]

    def _op(self, spec, g):
        p = invariants.profile(g, f"{spec}~")
        return p, invariants.compare(p, self.golden[spec])

    def warmup(self):
        self._op(*self.make_inputs()[0])

    def run_pass(self, inputs, rec):
        outputs = []
        for i, (spec, g) in enumerate(inputs):
            if i and spec != inputs[i - 1][0]:
                rec.mark()
            outputs.append(rec.op(self._op, spec, g))
        return outputs

    def check(self, inputs, outputs):
        ok = []
        for (spec, _), out in zip(inputs, outputs):
            if isinstance(out, Exception):
                ok.append(False)
                continue
            p, report = out
            ok.append(
                matches_golden(p, self.expected[spec])
                and report.verdicts == ALL_COSPECTRAL
                and report.distinguishing_invariant is None
            )
        return ok


class BatchCli(Workload):
    name = "batch_cli"
    why = ("CLI batch over a seeded corpus of 24-vertex circulants with known-isomorphic members:"
           " graph6 parsing, the thread pool, all-pairs compare and CSV output")
    op_unit = "one corpus graph"
    latency_op = "one batch invocation"
    threads = BATCH_THREADS

    def __init__(self, seed, goldens, workdir):
        super().__init__(seed, goldens, workdir)
        self.members = self._corpus()  # [(isomorphism class, Graph)]
        self.path = os.path.join(workdir, f"batch-{seed}.g6")
        write_g6(self.path, [g for _, g in self.members])
        self.warm_path = os.path.join(workdir, f"batch-{seed}-warmup.g6")
        write_g6(self.warm_path, [g for cls, g in self.members if cls == "rook4"])
        self.first_csv = None

    def _corpus(self):
        rng = self.rng
        units = (5, 7, 11, 13)
        members = []

        def connection_sets(size, count):
            found = []
            while len(found) < count:
                conn = tuple(sorted(rng.sample(range(1, 12), size)))
                if math.gcd(24, *conn) == 1 and conn not in found:
                    found.append(conn)
            return found

        # (connections, bases, bases given a multiplier image, bases given a relabelling):
        # the bases left without a twin are the graphs whose S+ polynomials decide nothing.
        for size, count, imaged, relabels in ((2, 4, 2, 1), (3, 1, 1, 0)):
            for i, conn in enumerate(connection_sets(size, count)):
                cls = f"circ{size}.{i}"
                g = circulant(24, conn)
                members.append((cls, g))
                if i < imaged:
                    u = rng.choice(units)
                    members.append((cls, circulant(24, [u * c % 24 for c in conn])))
                elif i < imaged + relabels:
                    members.append((cls, relabelled(g, rng)))
        shrikhande = generators.parse_generator_spec("shrikhande")
        members.append(("shrikhande", shrikhande))
        members.append(("shrikhande", relabelled(shrikhande, rng)))
        members.append(("rook4", generators.parse_generator_spec("rook:4")))
        rng.shuffle(members)
        return members

    def argv(self, path, threads=BATCH_THREADS):
        return ["batch", "--input", path, "--format", "csv", "--threads", str(threads)]

    def make_inputs(self):
        return None

    def warmup(self):
        run_cli(self.argv(self.warm_path))

    def run_pass(self, inputs, rec):
        return rec.op(run_cli, self.argv(self.path))

    def check(self, inputs, outputs):
        good = not isinstance(outputs, Exception) and self.csv_problems(outputs) == []
        if good:
            # the CSV must be byte-identical from invocation to invocation
            text = outputs[1]
            self.first_csv = self.first_csv or text
            good = text == self.first_csv
        return [good] * len(self.members)

    def csv_problems(self, outputs) -> list:
        """Everything wrong with one batch invocation's (exit code, CSV)."""
        code, text = outputs
        if code != 0:
            return [f"exit code {code}"]
        line_of = {f"{self.path}:{i + 1}": i for i in range(len(self.members))}
        rows = list(csv.reader(io.StringIO(text)))
        if rows[:1] != [["id1", "id2", "a", "s1", "s2", "s3", "distinguishing_invariant"]]:
            return ["unexpected CSV header"]
        problems, seen = [], set()
        for row in rows[1:]:
            i, j = (line_of.get(row[0]), line_of.get(row[1])) if len(row) == 7 else (None, None)
            if i is None or j is None:
                problems.append(f"malformed row {row}")
                continue
            seen.add((min(i, j), max(i, j)))
            if self.members[i][0] == self.members[j][0]:
                if row[2:6] != ["cospectral"] * 4 or row[6] != "":
                    problems.append(f"isomorphic pair {row[0]}, {row[1]} reported {row[2:]}")
        want = {
            (i, j)
            for i in range(len(self.members))
            for j in range(i + 1, len(self.members))
            if _nk(self.members[i][1]) == _nk(self.members[j][1])
        }
        if seen != want:
            problems.append(f"{len(seen)} pairs reported, {len(want)} expected")
        return problems


def _nk(g: Graph):
    return g.n, valency(g)


class VerifyCli(Workload):
    name = "verify_cli"
    why = ("CLI verify --checks all and closed-form spectra of s1/s2: identity_suite, closed forms,"
           " polynomials and Jacobi, including the k = 2 SKIP paths")
    op_unit = "one CLI command"

    def __init__(self, seed, goldens, workdir):
        super().__init__(seed, goldens, workdir)
        self.base = [(spec, generators.parse_generator_spec(spec)) for spec in VERIFY]
        self.spectra = goldens["spectra"]
        self.paths = [os.path.join(workdir, f"verify-{seed}-{i}.g6") for i in range(len(VERIFY))]
        self.commands = []  # (spec, k, what, argv)
        for (spec, g), path in zip(self.base, self.paths):
            k = valency(g)
            self.commands.append((spec, k, "verify",
                                  ["verify", "--checks", "all", "--input", path, "--format", "json"]))
            for which in ("s1", "s2") if k > 2 else ("s1",):
                self.commands.append((spec, k, which, ["spectrum", "--which", which, "--form",
                                                       "closed", "--input", path, "--format", "json"]))

    def make_inputs(self):
        for (_, g), path in zip(self.base, self.paths):
            write_g6(path, [relabelled(g, self.rng)])
        return self.commands

    def warmup(self):
        self.make_inputs()
        run_cli(self.commands[0][3])

    def run_pass(self, inputs, rec):
        outputs = []
        for i, (spec, _, _, argv) in enumerate(inputs):
            if i and spec != inputs[i - 1][0]:
                rec.mark()
            outputs.append(rec.op(run_cli, argv))
        return outputs

    def check(self, inputs, outputs):
        return [
            not isinstance(out, Exception) and self.command_ok(spec, k, what, *out)
            for (spec, k, what, _), out in zip(inputs, outputs)
        ]

    def command_ok(self, spec, k, what, code, text) -> bool:
        if code != 0:
            return False
        try:
            payload = json.loads(text)
        except ValueError:
            return False
        if what == "verify":
            statuses = {r["check"]: r["status"] for r in payload["results"]}
            skip = "SKIP" if k == 2 else "PASS"
            want = {"identities": "PASS", "thm32": "PASS", "thm41": skip, "thm43": skip,
                    "ihara": "PASS"}
            return statuses == want and len(payload["results"]) == len(want)
        spectrum = payload["spectrum"]
        return spectrum_matches(spectrum["entries"], self.spectra[spec][what]) and (
            spectrum["k"] == k
        )


WORKLOADS = {w.name: w for w in (SrgLadder, RelabelSmall, BatchCli, VerifyCli)}
