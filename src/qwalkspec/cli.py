"""Command-line front end.

Subcommands:

* ``spectrum`` -- closed-form, char-poly or numeric spectra of A, S+(U),
  S+(U^2), S+(U^3) for graphs from a .g6 file or a generator spec.
* ``verify``   -- run the exact identity and spectrum checks over a corpus.
* ``compare``  -- pairwise cospectrality verdicts for two graphs.
* ``batch``    -- all-pairs comparison over a corpus, grouped by (n, k).

Generator specs use ``name:params`` syntax (``cycle:6``, ``rook:4``,
``paley:13``) so experiments are reproducible from shell history.  Exit
codes: 0 success / all checks pass, 1 check failure or hypothesis violation,
2 usage or parse errors.  Set QWALK_LOG=debug for diagnostics.
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
from .graphs import Graph, adjacency_matrix, is_regular
from .intmat import char_poly, char_polys, mat_equal
from .invariants import (
    BatchResult,
    batch_compare,
    batch_to_csv,
    batch_to_json,
    certify,
    fingerprints,
)
from .jacobi import symmetric_eigenvalues
from .polynomials import CharPoly, poly_roots
from .supports import (
    adjacency_charpoly,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    closed_form_spectrum_su,
    closed_form_spectrum_su2,
    identity_suite,
    ihara_style_charpoly,
)
from .supports import _square_plus_identity, _walk_supports

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

    Only the ``qwalkspec`` logger changes, and only until the call returns,
    so each call applies its own level and the host's loggers stay as they are.
    """
    logger = logging.getLogger("qwalkspec")
    handler = _log_handler()
    handler.stream = sys.stderr  # this call's, which a caller may have redirected
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, os.environ.get("QWALK_LOG", "warning").upper(), logging.WARNING))
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


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
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


def _spectrum_payload(gid: str, g: Graph, which: str, form: str) -> dict:
    if form == "closed":
        if which not in ("s1", "s2"):
            raise HypothesisError(
                f"no closed form for {which!r}; closed form exists for s1 (k >= 2)"
                " and s2 (k > 2) only"
            )
        closed = closed_form_spectrum_su if which == "s1" else closed_form_spectrum_su2
        return {"id": gid, "which": which, "form": form, "spectrum": closed(g).to_json()}

    if form == "charpoly":
        cp = _charpoly_of(g, which)
        return {
            "id": gid,
            "which": which,
            "form": form,
            "degree": cp.degree,
            "coefficients": cp.to_json_list(),
        }

    # numeric
    if which == "a":
        vals = symmetric_eigenvalues(adjacency_matrix(g))
    elif which in ("s1", "s2"):
        try:
            closed = closed_form_spectrum_su if which == "s1" else closed_form_spectrum_su2
            vals = closed(g).numeric_values()
        except HypothesisError:
            vals = poly_roots(_charpoly_of(g, which).coeffs)
    else:
        vals = poly_roots(_charpoly_of(g, which).coeffs)
    return {"id": gid, "which": which, "form": form, "values": _display_values(vals)}


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
    if which == "a":
        return char_poly(adjacency_matrix(g))
    return char_poly(_walk_supports(build_arc_space(g), {"s1": 1, "s2": 2, "s3": 3}[which])[-1])


def _spectrum_text(payload: dict) -> str:
    lines = [f"# {payload['id']}  which={payload['which']}  form={payload['form']}"]
    if "spectrum" in payload:
        for e in payload["spectrum"]["entries"]:
            if e["type"] == "rational":
                lines.append(f"value {e['value']}  multiplicity {e['multiplicity']}")
            else:
                tag = "conjugate pair" if e["conjugate"] else "real pair"
                lines.append(
                    f"pair sum={_fmt_real(e['root_sum'])} product={_fmt_real(e['root_product'])}"
                    f"  multiplicity {e['multiplicity']}  ({tag})"
                )
    elif "coefficients" in payload:
        cp = CharPoly.from_json_list(payload["coefficients"])
        lines.append(str(cp))
    else:
        lines.extend(payload["values"])
    return "\n".join(lines) + "\n"


def _spectrum_csv(payloads: List[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "which", "form", "field", "value", "multiplicity"])
    for p in payloads:
        if "spectrum" in p:
            for e in p["spectrum"]["entries"]:
                if e["type"] == "rational":
                    writer.writerow(
                        [p["id"], p["which"], p["form"], "rational", e["value"], e["multiplicity"]]
                    )
                else:
                    writer.writerow(
                        [
                            p["id"],
                            p["which"],
                            p["form"],
                            "quadratic-pair",
                            f"sum={_fmt_real(e['root_sum'])};product={_fmt_real(e['root_product'])}",
                            e["multiplicity"],
                        ]
                    )
        elif "coefficients" in p:
            for i, c in enumerate(p["coefficients"]):
                writer.writerow([p["id"], p["which"], p["form"], f"t^{i}", c, ""])
        else:
            for v in p["values"]:
                writer.writerow([p["id"], p["which"], p["form"], "value", v, 1])
    return buf.getvalue()


def cmd_spectrum(args) -> int:
    payloads = []
    for gid, g in _load_graphs(args):
        try:
            payloads.append(_spectrum_payload(gid, g, args.which, args.form))
        except HypothesisError as e:
            raise HypothesisError(f"{gid}: {e}") from None
    if args.format == "json":
        text = json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2) + "\n"
    elif args.format == "csv":
        text = _spectrum_csv(payloads)
    else:
        text = "".join(_spectrum_text(p) for p in payloads)
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _VerifyInputs:
    """What several verify checks of one graph share, each computed once on first use.

    ``k`` is the graph's valency, or None if it is not regular, decided once here.
    """

    def __init__(self, g: Graph, checks: List[str]):
        self.g = g
        self.checks = checks
        self.k = is_regular(g)

    @cached_property
    def cp_a(self) -> CharPoly:
        return adjacency_charpoly(self.g)

    @cached_property
    def arcs(self) -> ArcSpace:
        return build_arc_space(self.g)

    @cached_property
    def supports(self) -> list:
        """[S+(U), S+(U^2)] from one W chain, built once; W alone when no check uses S+(U^2).

        thm41 and thm43 use S+(U^2) unless their k > 2 hypothesis fails on k.
        """
        s2 = ("thm41" in self.checks or "thm43" in self.checks) and (self.k is None or self.k > 2)
        return _walk_supports(self.arcs, 2 if s2 else 1)

    @cached_property
    def brute_force(self) -> dict:
        """Char polys of S+(U) and S+(U^2), as far as the checks use them, in one ``char_polys`` call."""
        matrices = {}
        if "thm32" in self.checks or "ihara" in self.checks:
            matrices["s1"] = self.supports[0]
        if "thm43" in self.checks and (self.k is None or self.k > 2):
            matrices["s2"] = self.supports[1]
        return dict(zip(matrices, char_polys(matrices.values())))


def _run_check(check: str, inputs: _VerifyInputs) -> Tuple[str, str]:
    """Returns (status, detail) with status in PASS/FAIL/SKIP; check is one of CHECK_NAMES."""
    g, k = inputs.g, inputs.k
    try:
        if check == "identities":
            if k is None or k < 1:
                return "SKIP", "hypothesis: regular graph with k >= 1"
            failed = [name for name, ok in identity_suite(g) if not ok]
            return ("FAIL", ", ".join(failed)) if failed else ("PASS", "")
        if check == "thm32":
            rhs = closed_form_charpoly_su(g, inputs.cp_a)
            ok = inputs.brute_force["s1"] == rhs
            return ("PASS", "") if ok else ("FAIL", "charpoly mismatch")
        if check == "ihara":
            rhs = ihara_style_charpoly(g, inputs.cp_a)
            ok = inputs.brute_force["s1"] == rhs
            return ("PASS", "") if ok else ("FAIL", "factorization mismatch")
        if k is not None and k <= 2:  # thm41 and thm43 both need k > 2
            return "SKIP", f"hypothesis k>2 (got k={k})"
        if check == "thm41":
            s1, s2 = inputs.supports
            ok = mat_equal(s2, _square_plus_identity(inputs.arcs, s1))
            return ("PASS", "") if ok else ("FAIL", "S+(U^2) != S+(U)^2 + I")
        rhs = closed_form_charpoly_su2(g, inputs.cp_a)  # thm43
        ok = inputs.brute_force["s2"] == rhs
        return ("PASS", "") if ok else ("FAIL", "charpoly mismatch")
    except HypothesisError as e:
        return "SKIP", f"hypothesis: {e}"


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
    any_fail = False
    for gid, g in graphs:
        inputs = _VerifyInputs(g, wanted)
        for check in wanted:
            status, detail = _run_check(check, inputs)
            any_fail = any_fail or status == "FAIL"
            rows.append({"id": gid, "check": check, "status": status, "detail": detail})

    if args.format == "json":
        text = json.dumps({"results": rows}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "check", "status", "detail"])
        for r in rows:
            writer.writerow([r["id"], r["check"], r["status"], r["detail"]])
        text = buf.getvalue()
    else:
        width = max(len(r["id"]) for r in rows)
        lines = [
            f"{r['id']:<{width}}  {r['check']:<10}  {r['status']:<4}  {r['detail']}".rstrip()
            for r in rows
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------
# compare / batch
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    id1, g1 = _resolve_single(args.first)
    id2, g2 = _resolve_single(args.second)
    if id1 == id2:
        id1, id2 = id1 + "#1", id2 + "#2"
    try:
        report = certify(*fingerprints([(id1, g1), (id2, g2)]))
    except HypothesisError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2) + "\n"
    elif args.format == "csv":
        text = batch_to_csv(BatchResult([report], []))
    else:
        lines = [f"# {id1} vs {id2}"]
        for which in ("a", "s1", "s2", "s3"):
            lines.append(f"{which:<3} {report.verdicts[which]}")
        lines.append(f"distinguishing invariant: {report.distinguishing_invariant or 'none'}")
        lines.append("note: cospectral on all invariants does not certify isomorphism")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    if args.expect_isomorphic and report.distinguishing_invariant is not None:
        return 1
    return 0


def cmd_batch(args) -> int:
    graphs = _load_graphs(args)
    result = batch_compare(
        graphs, include_cross_class=args.include_cross_class, threads=args.threads
    )
    if args.format == "csv":
        text = batch_to_csv(result)
    elif args.format == "text":
        lines = []
        for r in result.pairs:
            verdict = r.distinguishing_invariant or "cospectral on all"
            lines.append(f"{r.pair[0]} vs {r.pair[1]}: {verdict}")
        for gid, reason in result.skipped:
            lines.append(f"skipped {gid}: {reason}")
        text = ("\n".join(lines) + "\n") if lines else "no comparable pairs\n"
    else:
        text = batch_to_json(result) + "\n"
    _emit(text, args.output)
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
    except (Graph6Error, ParameterError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except HypothesisError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
