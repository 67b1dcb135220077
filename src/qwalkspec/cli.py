"""Command-line front end.

Subcommands:

* ``spectrum`` -- closed-form, char-poly or numeric spectra of A, S+(U),
  S+(U^2), S+(U^3) for graphs from a .g6 file or a generator spec.
* ``verify``   -- run the exact identity and spectrum checks over a corpus.
* ``compare``  -- pairwise cospectrality verdicts for two graphs.
* ``batch``    -- all-pairs comparison over a corpus, grouped by (n, k).

Generator specs use ``name:params`` syntax (``cycle:6``, ``rook:4``,
``paley:13``) so experiments are reproducible from shell history.  Each
command builds its result once as a JSON value, CSV rows and text lines, and
``_write`` prints the one that ``--format`` picks, to stdout or ``--output``.
Exit codes: 0 success / all checks pass, 1 check failure or hypothesis
violation, 2 usage or parse errors.  Set QWALK_LOG=debug for diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from contextlib import contextmanager
from functools import cache, cached_property
from typing import List, Optional, Tuple

from .arcspace import ArcSpace, build_arc_space
from .errors import Graph6Error, HypothesisError, ParameterError
from .generators import parse_generator_spec
from .graph6 import read_graph6_file
from .graphs import Graph, adjacency_matrix
from .intmat import char_poly, char_polys, mat_equal
from .invariants import INVARIANT_ORDER, batch_compare, certify, fingerprints
from .jacobi import symmetric_eigenvalues
from .polynomials import CharPoly, poly_roots
from .supports import (
    QuadraticPair,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    closed_form_spectrum_su,
    closed_form_spectrum_su2,
    identity_suite,
    ihara_style_charpoly,
    su2_via_identity,
    support_u_power,
)

CHECK_NAMES = ("identities", "thm32", "thm41", "thm43", "ihara")


@cache
def _log_handler() -> logging.StreamHandler:
    """The stderr handler that ``_logging_to_stderr`` attaches, in ``basicConfig``'s format."""
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    return handler


@contextmanager
def _logging_to_stderr():
    """Send qwalkspec's records at QWALK_LOG's level (default warning) to stderr while main runs.

    QWALK_LOG names a level of ``logging`` in any case; any other value, even
    a name of ``logging`` that is no int level (``basic_format``), means
    warning.  Only the ``qwalkspec`` logger changes, and only until the call
    returns, so each call applies its own level and the host's loggers stay as
    they are.
    """
    logger = logging.getLogger("qwalkspec")
    handler = _log_handler()
    handler.stream = sys.stderr  # this call's, which a caller may have redirected
    level = logger.level
    logger.addHandler(handler)
    wanted = getattr(logging, os.environ.get("QWALK_LOG", "warning").upper(), None)
    logger.setLevel(wanted if isinstance(wanted, int) else logging.WARNING)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_graphs(args) -> List[Tuple[str, Graph]]:
    out: List[Tuple[str, Graph]] = []
    for path in args.input or []:
        graphs = read_graph6_file(path)
        if not graphs:
            raise ParameterError(f"{path}: no graph in this --input file")
        out.extend(graphs)
    for spec in args.generate or []:
        out.append((spec, parse_generator_spec(spec)))
    if not out:
        raise ParameterError("no input graphs: pass --input and/or --generate")
    return out


def _resolve_single(token: str) -> Tuple[str, Graph]:
    """A compare operand: an existing .g6 file (with exactly one graph) or a generator spec."""
    if os.path.exists(token):
        graphs = read_graph6_file(token)
        if len(graphs) != 1:
            raise ParameterError(
                f"{token}: compare expects a single-graph file, found {len(graphs)};"
                " use the batch subcommand for corpora"
            )
        return graphs[0]
    return token, parse_generator_spec(token)


def _write(args, data, header, rows, lines: List[str]) -> None:
    """Print ``data`` as JSON, ``header`` and ``rows`` as CSV, or ``lines`` as text.

    Only the ``--format`` picked is rendered; it goes to ``--output``, else to stdout.
    """
    if args.format == "json":
        text = json.dumps(data, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_real(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _fmt_real(z.real)
    return f"{z.real:.12g}{z.imag:+.12g}i"


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


_SPECTRUM_HEADER = ("id", "which", "form", "field", "value", "multiplicity")


def _spectrum(gid: str, g: Graph, which: str, form: str) -> Tuple[dict, list, List[str]]:
    """One graph's spectrum as (JSON payload, CSV rows, text lines), from one pass over it."""
    head = [gid, which, form]
    payload = {"id": gid, "which": which, "form": form}
    rows = []
    lines = [f"# {gid}  which={which}  form={form}"]
    # looked up at each call, so that a wrapper installed after import sees every closed spectrum
    closed = {"s1": closed_form_spectrum_su, "s2": closed_form_spectrum_su2}.get(which)
    if form == "closed":
        if closed is None:
            raise HypothesisError(
                f"no closed form for {which!r}; closed form exists for s1 (k >= 2)"
                " and s2 (k > 2) only"
            )
        spectrum = closed(g)
        payload["spectrum"] = spectrum.to_json()
        for e in spectrum.entries:
            if isinstance(e, QuadraticPair):
                root_sum, product = _fmt_real(e.root_sum), _fmt_real(e.root_product)
                tag = "conjugate pair" if e.conjugate else "real pair"
                value = f"sum={root_sum};product={product}"
                rows.append([*head, "quadratic-pair", value, e.multiplicity])
                lines.append(f"pair sum={root_sum} product={product}"
                             f"  multiplicity {e.multiplicity}  ({tag})")
            else:
                rows.append([*head, "rational", e.value, e.multiplicity])
                lines.append(f"value {e.value}  multiplicity {e.multiplicity}")
    elif form == "charpoly":
        cp = _charpoly_of(g, which)
        payload.update(degree=cp.degree, coefficients=cp.to_json_list())
        rows = [[*head, f"t^{i}", c, ""] for i, c in enumerate(cp.coeffs)]
        lines.append(str(cp))
    else:
        if which == "a":
            vals = symmetric_eigenvalues(adjacency_matrix(g))
        elif closed is not None:
            try:
                vals = closed(g).numeric_values()
            except HypothesisError:
                vals = poly_roots(_charpoly_of(g, which).coeffs)
        else:
            vals = poly_roots(_charpoly_of(g, which).coeffs)
        payload["values"] = _display_values(vals)
        rows = [[*head, "value", v, 1] for v in payload["values"]]
        lines.extend(payload["values"])
    return payload, rows, lines


def _display_values(vals) -> List[str]:
    """Values to 12 digits, in the order of what is printed.

    Parts below 1e-12 * max(1, max |z|) are rounding noise and print as 0
    (never -0), and the order is by the printed digits, so values that print
    alike are not ordered by digits nobody sees.
    """
    vals = [complex(v) for v in vals]
    tol = 1e-12 * max([1.0] + [abs(z) for z in vals])

    def shown(x: float) -> float:
        return float(_fmt_real(x)) if abs(x) >= tol else 0.0

    rounded = sorted((shown(z.real), shown(z.imag)) for z in vals)
    return [_fmt_complex(complex(re, im)) for re, im in rounded]


def _charpoly_of(g: Graph, which: str) -> CharPoly:
    return g.charpoly if which == "a" else char_poly(support_u_power(build_arc_space(g), int(which[1])))


def cmd_spectrum(args) -> int:
    payloads, rows, lines = [], [], []
    for gid, g in _load_graphs(args):
        try:
            payload, graph_rows, graph_lines = _spectrum(gid, g, args.which, args.form)
        except HypothesisError as e:
            raise HypothesisError(f"{gid}: {e}") from None
        payloads.append(payload)
        rows += graph_rows
        lines += graph_lines
    _write(args, payloads if len(payloads) > 1 else payloads[0], _SPECTRUM_HEADER, rows, lines)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _VerifyInputs:
    """What several verify checks of one graph share, each computed once on first use.

    ``arcs`` is the graph's one arc space: the identity suite reads its W,
    the supports come from their entry formulas over its arcs, and thm41's
    S+(U)^2 + I from two arc steps.  No check but the identities forms W.
    The closed forms read the graph's own chi_A, ``valency`` and
    ``connected``.
    """

    def __init__(self, g: Graph, checks: List[str]):
        self.g = g
        self.checks = checks

    @cached_property
    def arcs(self) -> ArcSpace:
        return build_arc_space(self.g)

    @cached_property
    def su2(self):
        """S+(U^2), for thm41 and thm43."""
        return support_u_power(self.arcs, 2)

    @cached_property
    def brute_force(self) -> dict:
        """Char polys of S+(U) and S+(U^2), as far as the checks use them, in one ``char_polys`` call.

        Read once a closed form's hypotheses hold, so the graph is connected
        and k-regular with k >= 2; thm43 uses S+(U^2) only if k > 2.
        """
        matrices = {}
        if "thm32" in self.checks or "ihara" in self.checks:
            matrices["s1"] = support_u_power(self.arcs, 1)
        if "thm43" in self.checks and self.g.valency > 2:
            matrices["s2"] = self.su2
        return dict(zip(matrices, char_polys(matrices.values())))


def _run_check(check: str, inputs: _VerifyInputs) -> Tuple[str, str]:
    """Returns (status, detail) with status in PASS/FAIL/SKIP; check is one of CHECK_NAMES."""
    g, k = inputs.g, inputs.g.valency
    try:
        if check == "identities":
            if k is None or k < 1:
                return "SKIP", "hypothesis: regular graph with k >= 1"
            failed = [name for name, ok in identity_suite(inputs.arcs) if not ok]
            return ("FAIL", ", ".join(failed)) if failed else ("PASS", "")
        if check in ("thm41", "thm43") and k is not None and k <= 2:  # both need k > 2
            return "SKIP", f"hypothesis k>2 (got k={k})"
        if check == "thm41":
            ok = mat_equal(inputs.su2, su2_via_identity(inputs.arcs))
            return ("PASS", "") if ok else ("FAIL", "S+(U^2) != S+(U)^2 + I")
        # closed form, brute-force char poly it must equal, detail on FAIL; looked up at each
        # call, so that a wrapper installed after import sees every closed char poly
        closed_form, which, detail = {
            "thm32": (closed_form_charpoly_su, "s1", "charpoly mismatch"),
            "ihara": (ihara_style_charpoly, "s1", "factorization mismatch"),
            "thm43": (closed_form_charpoly_su2, "s2", "charpoly mismatch"),
        }[check]
        return ("PASS", "") if closed_form(g) == inputs.brute_force[which] else ("FAIL", detail)
    except HypothesisError as e:
        return "SKIP", f"hypothesis: {e}"


_VERIFY_HEADER = ("id", "check", "status", "detail")


def cmd_verify(args) -> int:
    graphs = _load_graphs(args)
    wanted = []
    for token in args.checks.split(","):
        token = token.strip().lower()
        if token == "all":
            wanted.extend(CHECK_NAMES)
        elif token in CHECK_NAMES:
            wanted.append(token)
        else:
            raise ParameterError(
                f"unknown check {token!r}; choose from all, {', '.join(CHECK_NAMES)}"
            )
    rows = []
    for gid, g in graphs:
        inputs = _VerifyInputs(g, wanted)
        rows.extend([gid, check, *_run_check(check, inputs)] for check in wanted)
    width = max(len(gid) for gid, *_ in rows)
    lines = [
        f"{gid:<{width}}  {check:<10}  {status:<4}  {detail}".rstrip()
        for gid, check, status, detail in rows
    ]
    results = [dict(zip(_VERIFY_HEADER, row)) for row in rows]
    _write(args, {"results": results}, _VERIFY_HEADER, rows, lines)
    return 1 if any(status == "FAIL" for _, _, status, _ in rows) else 0


# ---------------------------------------------------------------------------
# compare / batch
# ---------------------------------------------------------------------------


_CSV_HEADER = ("id1", "id2", *INVARIANT_ORDER, "distinguishing_invariant")


def _csv_rows(pairs) -> list:
    """One row under ``_CSV_HEADER`` per compared pair."""
    return [
        [*r.pair, *(r.verdicts[w] for w in INVARIANT_ORDER), r.distinguishing_invariant or ""]
        for r in pairs
    ]


def cmd_compare(args) -> int:
    id1, g1 = _resolve_single(args.first)
    id2, g2 = _resolve_single(args.second)
    if id1 == id2:
        id1, id2 = id1 + "#1", id2 + "#2"
    report = certify(*fingerprints([(id1, g1), (id2, g2)]))
    lines = [
        f"# {id1} vs {id2}",
        *(f"{which:<3} {verdict}" for which, verdict in report.verdicts.items()),
        f"distinguishing invariant: {report.distinguishing_invariant or 'none'}",
        "note: cospectral on all invariants does not certify isomorphism",
    ]
    _write(args, report.to_json(), _CSV_HEADER, _csv_rows([report]), lines)
    if args.expect_isomorphic and report.distinguishing_invariant is not None:
        return 1
    return 0


def cmd_batch(args) -> int:
    graphs = _load_graphs(args)
    result = batch_compare(
        graphs, include_cross_class=args.include_cross_class, threads=args.threads
    )
    lines = [
        f"{r.pair[0]} vs {r.pair[1]}: {r.distinguishing_invariant or 'cospectral on all'}"
        for r in result.pairs
    ]
    lines += [f"skipped {gid}: {reason}" for gid, reason in result.skipped]
    rows = _csv_rows(result.pairs)
    _write(args, result.to_json(), _CSV_HEADER, rows, lines or ["no comparable pairs"])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_io_args(sp, with_inputs: bool = True) -> None:
    if with_inputs:
        sp.add_argument("--input", action="append", metavar="PATH.g6",
                        help="graph6 corpus file, one graph per line (repeatable)")
        sp.add_argument("--generate", action="append", metavar="SPEC",
                        help="generator spec like cycle:6, rook:4, paley:13 (repeatable)")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--output", metavar="PATH", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalkspec",
        description="Exact walk-support spectra and cospectrality experiments on regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectrum of A, S+(U), S+(U^2) or S+(U^3)")
    _add_io_args(sp)
    sp.add_argument("--which", choices=("a", "s1", "s2", "s3"), required=True)
    sp.add_argument("--form", choices=("closed", "charpoly", "numeric"), default="closed",
                    help="closed form (s1, s2 only), exact char poly, or 12-digit numerics")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("verify", help="run exact identity and spectrum checks over a corpus")
    _add_io_args(sp)
    sp.add_argument("--checks", default="all",
                    help="comma-separated: all, identities, thm32, thm41, thm43, ihara "
                         "(arc identities; S+(U) spectrum; squared-support identity; "
                         "S+(U^2) spectrum; char poly factorization)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("compare", help="pairwise cospectrality verdicts for two graphs")
    sp.add_argument("first", help="generator spec or single-graph .g6 file")
    sp.add_argument("second", help="generator spec or single-graph .g6 file")
    sp.add_argument("--expect-isomorphic", action="store_true",
                    help="exit 1 if any invariant distinguishes the pair")
    _add_io_args(sp, with_inputs=False)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("batch", help="all-pairs comparison over a corpus, grouped by (n, k)")
    _add_io_args(sp)
    sp.add_argument("--include-cross-class", action="store_true",
                    help="also report pairs with different (n, k)")
    sp.add_argument("--threads", type=_positive_int, metavar="N",
                    help="workers: this process plus N-1 forked children, each phase dealt"
                         " into at most N tasks (default: the CPUs this process may run on,"
                         " at most one per graph)")
    sp.set_defaults(func=cmd_batch)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, so every call can share it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; safe to call many times in one process."""
    args = _parser().parse_args(argv)
    try:
        with _logging_to_stderr():
            return args.func(args)
    except (Graph6Error, ParameterError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except HypothesisError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
