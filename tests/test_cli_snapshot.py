"""Golden CLI output: each command below prints exactly what tests/data/cli holds.

Every golden records the command, its exit code, its stdout and (when not
empty) its stderr.  The ``--form numeric`` spectra and the closed-form JSON
are left out: they print full float reprs, whose last digits depend on the
LAPACK build.  After an intended output change, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_snapshot.py

and review the diff.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from qwalkspec.cli import main

DATA = Path(__file__).parent / "data" / "cli"

SPECTRUM_GRAPHS = ("petersen", "complete:4", "cycle:5", "hypercube:3", "paley:13", "shrikhande")
FORMATS = ("text", "json", "csv")


def _generate(*specs):
    return tuple(arg for spec in specs for arg in ("--generate", spec))


# mixed.g6: K4 minus an edge (irregular), two triangles, two K4s, a perfect
# matching (k = 1) and C6.
VERIFY_INPUTS = _generate("petersen", "cycle:5", "complete:2") + ("--input", "mixed.g6")
SMALL_BATCH_INPUTS = ("--input", "mixed.g6") + _generate("complete:4", "petersen", "cycle:5")
BATCH_INPUTS = SMALL_BATCH_INPUTS + _generate("shrikhande", "rook:4")


def _cases() -> dict:
    cases = {}
    for which in ("a", "s1", "s2", "s3"):
        for fmt in FORMATS:
            cases[f"spectrum_charpoly_{which}_{fmt}"] = (
                "spectrum", "--which", which, "--form", "charpoly", "--format", fmt,
                *_generate(*SPECTRUM_GRAPHS))
    for fmt in ("text", "csv"):
        cases[f"spectrum_closed_s1_{fmt}"] = (
            "spectrum", "--which", "s1", "--format", fmt, *_generate(*SPECTRUM_GRAPHS))
        cases[f"spectrum_closed_s2_{fmt}"] = (
            "spectrum", "--which", "s2", "--format", fmt,
            *_generate(*(s for s in SPECTRUM_GRAPHS if s != "cycle:5")))
    cases["spectrum_closed_s2_k2_error"] = ("spectrum", "--which", "s2", *_generate("cycle:5"))
    for fmt in FORMATS:
        cases[f"verify_{fmt}"] = ("verify", "--format", fmt, *VERIFY_INPUTS)
        for threads in (1, 2):
            cases[f"batch_threads{threads}_{fmt}"] = (
                "batch", "--threads", str(threads), "--format", fmt, *BATCH_INPUTS)
        cases[f"compare_{fmt}"] = ("compare", "shrikhande", "rook:4", "--format", fmt)
    cases["batch_cross_class_text"] = (
        "batch", "--threads", "1", "--include-cross-class", *SMALL_BATCH_INPUTS)
    cases["compare_irregular_error"] = ("compare", "complete_bipartite:2,3", "petersen")
    return cases


CASES = _cases()


def render(argv) -> str:
    """Run the CLI in this process (in DATA, so file ids are relative) and record it."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    text = f"$ qwalkspec {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"--- stderr\n{err.getvalue()}"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    golden = (DATA / f"{name}.txt").read_text(encoding="utf-8")
    assert render(CASES[name]) == golden


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        (DATA / f"{name}.txt").write_text(render(argv), encoding="utf-8", newline="\n")
    sys.exit(0)
