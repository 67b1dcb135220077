import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from qwalkspec import (
    Graph,
    complete_graph,
    cycle_graph,
    int_eye,
    parse_generator_spec,
    parse_graph6,
    petersen_graph,
    relabel,
    write_graph6_file,
)
from qwalkspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_closed_petersen(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--generate", "petersen", "--which", "s1", "--form", "closed"
    )
    assert code == 0
    assert "value 2  multiplicity 1" in out  # k - 1
    assert "conjugate pair" in out


def test_spectrum_charpoly_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--generate",
        "complete:4",
        "--which",
        "s2",
        "--form",
        "charpoly",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 12
    assert payload["coefficients"][-1] == "1"


def test_spectrum_numeric_adjacency(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--generate", "cycle:3", "--which", "a", "--form", "numeric"
    )
    assert code == 0
    values = [line for line in out.splitlines() if not line.startswith("#")]
    assert values == ["-1", "-1", "2"]


@pytest.mark.parametrize("spec", ["cycle:4", "hypercube:4", "complete_bipartite:3,3"])
def test_spectrum_numeric_prints_no_rounding_noise(tmp_path, capsys, spec):
    g = parse_generator_spec(spec)
    outputs = []
    for i, perm in enumerate([list(range(g.n)), list(reversed(range(g.n)))]):
        path = tmp_path / f"{i}.g6"
        write_graph6_file(str(path), [relabel(g, perm)])
        code, out, _ = run_cli(
            capsys, "spectrum", "--input", str(path), "--which", "a", "--form", "numeric"
        )
        assert code == 0
        outputs.append(out.splitlines()[1:])
    assert not any("e-" in v for v in outputs[0])
    assert "0" in outputs[0] and "-0" not in outputs[0]
    assert outputs[0] == outputs[1]


def test_spectrum_numeric_s3(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--generate", "complete:4", "--which", "s3", "--form", "numeric"
    )
    assert code == 0
    values = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(values) == 12


def _exact_support_charpoly(g, which):
    from qwalkspec import build_arc_space, char_poly, support_u_power

    return char_poly(support_u_power(build_arc_space(g), int(which[1]))).coeffs


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize(
    "source, which, roots_calls",
    [("petersen", "s1", 0), ("petersen", "s2", 0), ("cycle:9", "s2", 1), ("EwCW", "s1", 1)],
    ids=["petersen-s1-closed", "petersen-s2-closed", "cycle9-s2-k2", "two-triangles-s1"],
)
def test_spectrum_numeric_s1_s2_values_are_the_roots_of_the_exact_char_poly(
        source, which, roots_calls, fmt, tmp_path, capsys, monkeypatch):
    """The closed spectrum where it applies; else poly_roots of the exact char poly (k = 2 for s2,
    a disconnected graph for s1).  Each value is checked as a root of the brute-force char poly,
    with its multiplicity, not as 12-digit text."""
    from qwalkspec import cli
    from qwalkspec.polynomials import poly_roots
    from oracles import max_matching_distance

    if source == "EwCW":  # graph6 of two disjoint triangles
        path = tmp_path / "two-triangles.g6"
        path.write_text("EwCW\n")
        args, g = ["--input", str(path)], parse_graph6("EwCW")
    else:
        args, g = ["--generate", source], parse_generator_spec(source)
    calls = []
    monkeypatch.setattr(cli, "poly_roots", lambda p: calls.append(p) or poly_roots(p))
    code, out, _ = run_cli(capsys, "spectrum", *args, "--which", which, "--form", "numeric",
                           "--format", fmt)
    assert code == 0 and len(calls) == roots_calls
    if fmt == "csv":
        lines = out.splitlines()
        assert lines[0] == "id,which,form,field,value,multiplicity"
        rows = [line.split(",") for line in lines[1:]]
        assert all(row[1:4] == [which, "numeric", "value"] and row[5] == "1" for row in rows)
        texts = [row[4] for row in rows]
    else:
        texts = out.splitlines()[1:]
    values = [complex(t.replace("i", "j")) for t in texts]
    assert len(values) == g.n * g.valency
    cp = _exact_support_charpoly(g, which)
    for z in values:  # a root: |cp(z)| tiny against the sum of |c_i| |z|^i
        assert abs(np.polyval(cp[::-1], z)) <= 1e-9 * np.polyval(np.abs(cp[::-1]), abs(z))
    assert max_matching_distance(values, poly_roots(cp)) < 1e-9


def test_spectrum_closed_form_unavailable_for_s3(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--generate", "petersen", "--which", "s3", "--form", "closed"
    )
    assert code == 1
    assert err.startswith("error: petersen: no closed form for 's3'")


def test_spectrum_closed_s2_requires_k3(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--generate", "cycle:4", "--which", "s2", "--form", "closed"
    )
    assert code == 1
    assert "k > 2" in err or "k >= 3" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["--generate", "petersen", "--generate", "complete:2", "--which", "s1",
             "--form", "charpoly"],
            "error: complete:2: support of the walk needs valency >= 2, got k=1\n",
        ),
        (
            ["--generate", "complete_bipartite:2,3", "--which", "s3", "--form", "numeric"],
            "error: complete_bipartite:2,3: graph is not regular\n",
        ),
    ],
    ids=["charpoly", "numeric"],
)
def test_spectrum_errors_name_the_graph(capsys, argv, err):
    assert run_cli(capsys, "spectrum", *argv) == (1, "", err)


def test_verify_all_pass_and_skip(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--generate", "complete:4",
        "--generate", "complete:5",
        "--generate", "petersen",
        "--checks", "thm41",
    )
    assert code == 0
    assert out.count("PASS") == 3
    code, out, _ = run_cli(
        capsys, "verify", "--generate", "cycle:4", "--checks", "thm41"
    )
    assert code == 0  # skipped checks do not fail the run
    assert "SKIP" in out and "k>2" in out


def test_verify_skips_need_no_brute_force_char_poly(tmp_path, capsys, monkeypatch):
    irregular = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    path = tmp_path / "irregular.g6"
    write_graph6_file(str(path), [irregular])
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 0 and "None" not in out
    assert out.count("SKIP  hypothesis: graph is not regular") == 4  # all but identities

    # the closed forms reject these graphs before any brute-force char poly is needed
    def no_char_poly(m):
        raise AssertionError("brute-force char poly computed for a skipped check")

    monkeypatch.setattr("qwalkspec.cli.char_poly", no_char_poly)
    monkeypatch.setattr("qwalkspec.cli.char_polys", no_char_poly)
    two_k4 = Graph(8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)])
    matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
    path = tmp_path / "skipped.g6"
    write_graph6_file(str(path), [two_k4, matching])
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--format", "json")
    assert code == 0
    statuses = [(r["check"], r["status"]) for r in json.loads(out)["results"]]
    assert statuses == [
        ("identities", "PASS"), ("thm32", "SKIP"), ("thm41", "PASS"), ("thm43", "SKIP"),
        ("ihara", "SKIP"),
        ("identities", "PASS"), ("thm32", "SKIP"), ("thm41", "SKIP"), ("thm43", "SKIP"),
        ("ihara", "SKIP"),
    ]


@pytest.mark.parametrize(
    "spec, checks, shared, built",
    [
        ("petersen", "all", [2], [1, 2]),
        ("petersen", "thm32", [1], [1]),
        ("petersen", "thm43,ihara", [2], [1, 2]),
        ("petersen", "thm43", [1], [2]),
        ("petersen", "identities,thm41", [], [2]),
        ("cycle:6", "all", [1], [1]),
    ],
)
def test_verify_shares_one_kernel_pass_between_s1_and_s2(spec, checks, shared, built,
                                                         capsys, monkeypatch):
    """The pass is shared when S+(U) and S+(U^2) fall back to the kernel, forced here for all."""
    from qwalkspec import ArcSpace, cli, intmat

    nk = 30 if spec == "petersen" else 12
    passes, calls, powers, walks, regular = [], [], [], [], []
    kernel, polys, support_u_power = intmat._hessenberg_stack, cli.char_polys, cli.support_u_power
    w, valency = ArcSpace.w, Graph.valency.func

    def kernel_spy(h, primes):
        passes.append(h.shape[1])
        return kernel(h, primes)

    def polys_spy(ms):
        ms = list(ms)
        calls.append(len(ms))
        return polys(ms)

    def power_spy(a, m):
        powers.append(m)
        return support_u_power(a, m)

    def w_spy(a, m):
        walks.append(m)
        return w(a, m)

    def valency_spy(g):
        regular.append(g)
        return valency(g)

    monkeypatch.setattr(intmat, "_hessenberg_stack", kernel_spy)
    monkeypatch.setattr(intmat, "_permutation_route", lambda m, r: None)  # cycle:6's S+(U) has r = 1
    monkeypatch.setattr(intmat, "_trace_route", lambda m, r: None)
    monkeypatch.setattr(intmat, "_minpoly_route", lambda m, r: (None, "degree"))
    monkeypatch.setattr(cli, "char_polys", polys_spy)
    monkeypatch.setattr(cli, "support_u_power", power_spy)
    monkeypatch.setattr(ArcSpace, "w", w_spy)
    monkeypatch.setattr(Graph.valency, "func", valency_spy)
    code, out, _ = run_cli(capsys, "verify", "--generate", spec, "--checks", checks)
    assert code == 0 and "FAIL" not in out
    # one formula S+(U) when thm32 or ihara reads it, one S+(U^2) for thm41 and thm43
    assert calls == shared and powers == built
    # W*I and W*W^T for the identities alone: no entry formula applies W, nor thm41's S+(U)^2 + I
    assert len(walks) == 2 * ("identities" in checks or checks == "all")
    assert passes.count(nk) == len(shared)
    assert len(regular) == 1  # one graph, its k decided once for every check


def test_verify_decides_each_graphs_hypotheses_once(tmp_path, capsys, monkeypatch):
    """Each graph's valency decided once, its connectivity once if the degrees pass, and every
    SKIP detail the one the checked closed forms raise."""
    from qwalkspec import HypothesisError, cli, supports

    graphs = [petersen_graph(), cycle_graph(5),
              Graph(8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)]),
              Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), Graph(6, [(0, 1), (2, 3), (4, 5)])]
    path = tmp_path / "graphs.g6"
    write_graph6_file(str(path), graphs)
    calls = _spy_graph_facts(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--format", "json")
    assert code == 0
    assert [(name, g.n) for name, g in calls if name == "connected"] == [("connected", n) for n in (10, 5, 8)]
    assert [g.n for name, g in calls if name == "valency"] == [g.n for g in graphs]
    assert len({id(g) for _, g in calls}) == len(graphs)  # the graphs read from the file, no copies

    checked = {"thm32": supports.closed_form_charpoly_su, "ihara": supports.ihara_style_charpoly,
               "thm43": supports.closed_form_charpoly_su2}
    rows = iter(json.loads(out)["results"])
    monkeypatch.undo()
    for g in graphs:
        k = g.valency
        for check in cli.CHECK_NAMES:
            row = next(rows)
            if check == "thm43" and k is not None and k <= 2:
                assert (row["status"], row["detail"]) == ("SKIP", f"hypothesis k>2 (got k={k})")
                continue
            if check not in checked:
                continue
            try:
                checked[check](g)
                assert row["status"] == "PASS", (g.n, check)
            except HypothesisError as e:
                assert (row["status"], row["detail"]) == ("SKIP", f"hypothesis: {e}"), (g.n, check)


def _spy_graph_facts(monkeypatch) -> list:
    """The (name, graph) of each time a graph decides its ``valency`` or ``connected``."""
    calls = []
    for name in ("valency", "connected"):
        prop = getattr(Graph, name)

        def counted(g, name=name, real=prop.func):
            calls.append((name, g))
            return real(g)

        monkeypatch.setattr(prop, "func", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", "all", "--input", "GRAPHS"],
    ["batch", "--threads", "1", "--include-cross-class", "--input", "GRAPHS"],
    ["compare", "shrikhande", "rook:4"],
    ["compare", "petersen", "petersen"],
    ["spectrum", "--which", "s2", "--form", "closed", "--generate", "petersen",
     "--generate", "hypercube:3"],
    ["spectrum", "--which", "s1", "--form", "closed", "--input", "GRAPHS"],
    ["spectrum", "--which", "s2", "--form", "numeric", "--generate", "cycle:5",
     "--generate", "complete:4"],
])
def test_each_command_decides_a_graphs_valency_and_connectivity_at_most_once(
        argv, tmp_path, capsys, monkeypatch):
    graphs = [petersen_graph(), cycle_graph(5), complete_graph(4), parse_generator_spec("rook:4"),
              Graph(8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)]),
              Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), Graph(6, [(0, 1), (2, 3), (4, 5)])]
    path = tmp_path / "graphs.g6"
    write_graph6_file(str(path), graphs)
    calls = _spy_graph_facts(monkeypatch)
    run_cli(capsys, *[str(path) if a == "GRAPHS" else a for a in argv])
    assert calls
    for name in ("valency", "connected"):
        per_graph = [id(g) for n, g in calls if n == name]
        assert len(per_graph) == len(set(per_graph)), name


def test_wrappers_installed_after_import_see_every_closed_spectrum_and_support(capsys, monkeypatch):
    """``spectrum``, ``verify`` and ``profile`` reach the closed spectra, closed char polys and
    supports through their public names, read at each call, so a wrapper installed after import
    at every module that binds the name sees every one."""
    import qwalkspec
    from qwalkspec import cli, invariants, supports

    seen = []
    for name in ("closed_form_spectrum_su", "closed_form_spectrum_su2", "su2_via_identity",
                 "support_u_power", "closed_form_charpoly_su", "ihara_style_charpoly",
                 "closed_form_charpoly_su2"):
        real = getattr(supports, name)

        def wrapper(*args, name=name, real=real):
            seen.append(name)
            return real(*args)

        for module in (supports, cli, invariants, qwalkspec):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    for which in ("s1", "s2"):
        for form in ("closed", "numeric"):
            assert run_cli(capsys, "spectrum", "--which", which, "--form", form,
                           "--generate", "petersen")[0] == 0
    # closed_form_spectrum_su2 squares the spectrum closed_form_spectrum_su returns
    assert seen == ["closed_form_spectrum_su"] * 2 + ["closed_form_spectrum_su2", "closed_form_spectrum_su"] * 2
    seen.clear()
    for which in ("s1", "s2", "s3"):
        assert run_cli(capsys, "spectrum", "--which", which, "--form", "charpoly",
                       "--generate", "petersen")[0] == 0
    assert seen == ["support_u_power"] * 3
    seen.clear()
    code, out, _ = run_cli(capsys, "verify", "--checks", "all", "--generate", "petersen",
                           "--generate", "cycle:5")
    assert code == 0 and out.count("PASS") == 8
    assert seen == ["closed_form_charpoly_su", "support_u_power", "support_u_power", "su2_via_identity",
                    "closed_form_charpoly_su2", "ihara_style_charpoly",  # petersen, k = 3
                    "closed_form_charpoly_su", "support_u_power", "ihara_style_charpoly"]  # cycle:5, k = 2
    seen.clear()
    for g in (petersen_graph(), cycle_graph(5)):
        invariants.profile(g, "g")
    assert seen == ["closed_form_charpoly_su", "closed_form_charpoly_su2", "support_u_power"] * 2


def _spy_shared_values(monkeypatch) -> tuple:
    """The graphs that form chi_A, the arc spaces that form S+(U), and the shapes of all supports."""
    import qwalkspec
    from qwalkspec import cli, intmat, invariants, supports

    chi_a, s_plus_u, supports_formed = [], [], []
    charpoly, positive_support = Graph.charpoly.func, intmat.positive_support
    support_u_power = supports.support_u_power

    def charpoly_spy(g):
        chi_a.append(g)
        return charpoly(g)

    def power_spy(a, m):
        if m == 1:
            s_plus_u.append(a)
        return support_u_power(a, m)

    def positive_support_spy(m):
        supports_formed.append(m.shape)
        return positive_support(m)

    monkeypatch.setattr(Graph.charpoly, "func", charpoly_spy)
    for module in (supports, cli, invariants, qwalkspec):
        monkeypatch.setattr(module, "support_u_power", power_spy)
    for module in (intmat, supports):
        monkeypatch.setattr(module, "positive_support", positive_support_spy)
    return chi_a, s_plus_u, supports_formed


@pytest.mark.parametrize("argv, chi_a, s_plus_u, supports_formed", [
    # thm32, ihara and thm43 share chi_A, and thm32 and ihara one formula S+(U)
    (["verify", "--checks", "all", "--generate", "petersen"], 1, 1, [(30, 30)] * 2),
    (["verify", "--checks", "all", "--generate", "petersen", "--generate", "cycle:5"], 2, 2,
     [(30, 30)] * 2 + [(10, 10)]),
    (["spectrum", "--which", "a", "--form", "charpoly", "--generate", "petersen",
      "--generate", "cycle:5"], 2, 0, []),
    (["spectrum", "--which", "s1", "--form", "charpoly", "--generate", "petersen"], 0, 1, [(30, 30)]),
])
def test_each_command_forms_a_graphs_chi_a_and_s_plus_u_at_most_once(
        argv, chi_a, s_plus_u, supports_formed, capsys, monkeypatch):
    spied = _spy_shared_values(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "FAIL" not in out
    assert [len(spied[0]), len(spied[1]), spied[2]] == [chi_a, s_plus_u, supports_formed]
    for values in spied[:2]:
        assert len({id(x) for x in values}) == len(values)  # never twice for one graph


def test_profile_forms_chi_a_once_and_no_s_plus_u(monkeypatch):
    """``profile`` reads chi_A for A and both closed forms, and builds only S+(U^3)."""
    from qwalkspec import invariants

    chi_a, s_plus_u, supports_formed = _spy_shared_values(monkeypatch)
    for g, nk in ((petersen_graph(), 30), (cycle_graph(5), 10)):
        p = invariants.profile(g, "g")
        assert p.charpoly_a is g.charpoly and chi_a == [g]
        assert s_plus_u == [] and supports_formed == [(nk, nk)]
        chi_a.clear()
        supports_formed.clear()


def test_spectrum_charpoly_forms_only_the_support_it_returns(capsys, monkeypatch):
    from qwalkspec import intmat, supports

    shapes, real = [], intmat.positive_support

    def spy(m):
        shapes.append(m.shape)
        return real(m)

    for module in (intmat, supports):
        monkeypatch.setattr(module, "positive_support", spy)
    code, out, _ = run_cli(capsys, "spectrum", "--which", "s3", "--form", "charpoly", "--generate", "petersen")
    assert code == 0 and shapes == [(30, 30)]
    monkeypatch.undo()
    assert run_cli(capsys, "spectrum", "--which", "s3", "--form", "charpoly", "--generate", "petersen")[1] == out


def test_verify_builds_one_w_chain_and_no_kernel_pass_for_an_srg(capsys, monkeypatch):
    """One arc space serves every check: identity_suite forms W = W*I and then W*W^T from it, and
    S+(U) and S+(U^2) come from their entry formulas, so those are the only W products; the A,
    S+(U) and S+(U^2) char polys all take the minimal-polynomial route."""
    from qwalkspec import arcspace, intmat

    built, w_calls, passes = [], [], []
    arc_space, w, kernel = arcspace.ArcSpace, arcspace.ArcSpace.w, intmat._hessenberg_stack

    def arc_space_spy(*fields):  # every arc space that build_arc_space makes, whoever calls it
        built.append(arc_space(*fields))
        return built[-1]

    def w_spy(self, m):
        w_calls.append((m, w(self, m)))
        return w_calls[-1][1]

    def kernel_spy(h, primes):
        passes.append(h.shape[1])
        return kernel(h, primes)

    monkeypatch.setattr(arc_space, "w", w_spy)
    monkeypatch.setattr(arcspace, "ArcSpace", arc_space_spy)
    monkeypatch.setattr(intmat, "_hessenberg_stack", kernel_spy)
    code, out, _ = run_cli(capsys, "verify", "--generate", "shrikhande", "--checks", "all")
    assert code == 0 and out.count(" PASS") == 5
    assert len(built) == 1 and passes == []
    [(eye, walk), (w_t, _)] = w_calls
    assert np.array_equal(eye, int_eye(96)) and w_t.base is walk


@pytest.mark.parametrize("m, row, checks", [
    (1, (False, ((2, 0, 0, "th"),)), "thm32,ihara"),  # -k at j, not at rev j: backtracking allowed
    (2, (True, ((4, 0, 1, "th"), (-2, 1, 0, "tt"), (-2, 1, 0, "hh"))), "thm41,thm43"),  # k^2 at rev j
])
def test_verify_fails_when_an_entry_formula_is_wrong(m, row, checks, capsys, monkeypatch):
    """A wrong S+(U) row fails both closed forms of S+(U), and a wrong S+(U^2) row fails its
    closed form and thm41, whose S+(U)^2 + I shares no code with the formula."""
    from qwalkspec import supports

    monkeypatch.setitem(supports._POWER_TERMS, m, row)
    code, out, _ = run_cli(capsys, "verify", "--generate", "petersen", "--checks", checks)
    assert code == 1 and out.count(" FAIL ") == 2 and "PASS" not in out, out


def test_verify_thm43_of_paley37_takes_the_minimal_polynomial_route(capsys, monkeypatch):
    """S+(U^2) of paley:37 has n = 666, r = 290 and Krylov degree 6: 290^6 < 2^52, so its char
    poly needs no Hessenberg pass, though 290^7 passes 2^53."""
    monkeypatch.setenv("QWALK_LOG", "debug")
    code, out, err = run_cli(capsys, "verify", "--checks", "thm43", "--generate", "paley:37")
    assert code == 0 and out.splitlines() == ["paley:37  thm43       PASS"]
    assert "charpoly route=minpoly n=666 krylov_degree=6 " in err and "route=hessenberg" not in err


def test_main_shares_one_parser_between_calls(capsys, monkeypatch):
    from qwalkspec import cli

    built = []
    build = cli.build_parser

    def build_spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", build_spy)
    cli._parser.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "spectrum", "--which", "s1", "--generate", "petersen")
        assert code == 0 and out.startswith("# petersen")
        code, out, _ = run_cli(capsys, "compare", "cycle:5", "cycle:5")
        assert code == 0 and out.startswith("# cycle:5#1 vs cycle:5#2")
        code, out, _ = run_cli(capsys, "verify", "--generate", "cycle:6", "--format", "json")
        assert code == 0
        assert {r["id"] for r in json.loads(out)["results"]} == {"cycle:6"}
        code, out, _ = run_cli(capsys, "spectrum", "--which", "a", "--form", "charpoly",
                               "--generate", "cycle:4", "--format", "json")
        assert code == 0 and json.loads(out)["id"] == "cycle:4"  # one payload, not a list
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_verify_forms_every_arc_space_product_by_the_arc_step(capsys, monkeypatch):
    # ins, outs, W, S+(U), kQ and P all act through ins: each operand has nk rows and n or nk columns
    from qwalkspec import ArcSpace

    operands, ins = [], ArcSpace.ins

    def ins_spy(self, m):
        operands.append((self.n, self.size, m.shape))
        return ins(self, m)

    monkeypatch.setattr(ArcSpace, "ins", ins_spy)
    code, out, _ = run_cli(capsys, "verify", "--checks", "all", "--generate", "shrikhande",
                           "--generate", "paley:13", "--generate", "cycle:12")
    assert code == 0 and out.count(" PASS") == 13
    assert {(n, nk) for n, nk, _ in operands} == {(16, 96), (13, 78), (12, 24)}
    assert all(shape in ((nk, n), (nk, nk)) for n, nk, shape in operands), operands
    for n, nk in ((16, 96), (13, 78), (12, 24)):  # the three n x n incidence products at least
        assert [shape for m, size, shape in operands if (m, size) == (n, nk)].count((nk, n)) >= 3, n


def test_verify_identities_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--generate", "cycle:5", "--checks", "identities,ihara"
    )
    assert code == 0
    assert "identities" in out and "ihara" in out


def _corrupt_verify_input(monkeypatch, check):
    """Feeds ``check`` a wrong input, leaving its code as it is: an arc space with two reversals
    swapped (identities), an S+(U^2) with one entry flipped (thm41), or brute-force char polys
    whose constant term is off by one (thm32, ihara, thm43)."""
    import dataclasses

    from qwalkspec import cli
    from qwalkspec.polynomials import CharPoly

    if check == "identities":
        real_arcs = cli.build_arc_space

        def swapped(g):
            a = real_arcs(g)
            rev = a.rev.copy()
            rev[1], rev[2] = rev[2], rev[1]  # arcs of different tails, as in test_arcspace
            return dataclasses.replace(a, rev=rev)

        monkeypatch.setattr(cli, "build_arc_space", swapped)
    elif check == "thm41":
        real_power = cli.support_u_power

        def flipped(a, m):
            s2 = real_power(a, m).copy()
            s2[0, 0] ^= 1
            return s2

        monkeypatch.setattr(cli, "support_u_power", flipped)
    else:
        real_polys = cli.char_polys
        monkeypatch.setattr(cli, "char_polys", lambda ms: [
            CharPoly((cp.coeffs[0] + 1, *cp.coeffs[1:])) for cp in real_polys(ms)])


_FAIL_DETAILS = {
    "identities": "outs*outs^T = kI, P^2 = I, P*ins^T = outs^T, P*outs^T = ins^T, W*W^T = k^2 I,"
                  " S+(U)*ins^T = (k-1)outs^T, S+(U)*outs^T = outs^T A - ins^T",  # outs*X = ins*(P*X) reads rev
    "thm32": "charpoly mismatch",
    "thm41": "S+(U^2) != S+(U)^2 + I",
    "thm43": "charpoly mismatch",
    "ihara": "factorization mismatch",
}


@pytest.mark.parametrize("check", list(_FAIL_DETAILS))
def test_verify_reports_fail_when_a_checks_input_is_corrupted(check, capsys, monkeypatch):
    _corrupt_verify_input(monkeypatch, check)
    detail = _FAIL_DETAILS[check]
    argv = ["verify", "--checks", check, "--generate", "petersen"]
    assert run_cli(capsys, *argv) == (1, f"petersen  {check:<10}  FAIL  {detail}\n", "")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    row = {"id": "petersen", "check": check, "status": "FAIL", "detail": detail}
    assert (code, json.loads(out)) == (1, {"results": [row]})


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--generate", "cycle:5", "--checks", "thm99")
    assert code == 2
    assert "unknown check" in err


def test_compare_identical_graphs(capsys):
    code, out, _ = run_cli(capsys, "compare", "petersen", "petersen")
    assert code == 0
    assert out.count("cospectral") >= 4
    assert "distinguishing invariant: none" in out


def test_compare_srg_pair_json(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "shrikhande", "rook:4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["a"] == "cospectral"
    assert payload["verdicts"]["s1"] == "cospectral"
    assert payload["verdicts"]["s2"] == "cospectral"


def test_compare_expect_isomorphic_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "compare", "cycle:6", "circulant:6,1", "--expect-isomorphic"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "compare", "shrikhande", "rook:4", "--expect-isomorphic"
    )
    # exit 1 iff some invariant distinguished the pair (s3 experimentally does)
    code2, out, _ = run_cli(capsys, "compare", "shrikhande", "rook:4", "--format", "csv")
    distinguished = "distinguished" in out
    assert code == (1 if distinguished else 0)


def test_compare_rejects_multigraph_file(tmp_path, capsys):
    path = tmp_path / "two.g6"
    write_graph6_file(str(path), [cycle_graph(4), cycle_graph(5)])
    code, _, err = run_cli(capsys, "compare", str(path), "cycle:4")
    assert code == 2
    assert "single-graph" in err


def test_compare_file_input(tmp_path, capsys):
    path = tmp_path / "one.g6"
    write_graph6_file(str(path), [petersen_graph()])
    code, out, _ = run_cli(capsys, "compare", str(path), "petersen")
    assert code == 0
    assert "distinguishing invariant: none" in out


def test_batch_on_g6_file(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    write_graph6_file(
        str(path), [cycle_graph(6), cycle_graph(6), complete_graph(4)]
    )
    code, out, _ = run_cli(
        capsys, "batch", "--input", str(path), "--format", "json", "--threads", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 1  # only the two C6 share (n, k)
    ids = payload["pairs"][0]["ids"]
    assert ids == sorted(ids)


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_batch_rejects_threads_below_one(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--generate", "cycle:5", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_batch_csv_output_to_file(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    out_path = tmp_path / "report.csv"
    write_graph6_file(str(path), [cycle_graph(5), cycle_graph(5)])
    code, _, _ = run_cli(
        capsys,
        "batch", "--input", str(path), "--format", "csv", "--output", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("id1,id2,a,s1,s2,s3")


def test_spectrum_closed_csv(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--generate", "complete:4", "--which", "s1",
        "--form", "closed", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "id,which,form,field,value,multiplicity"
    assert any("quadratic-pair" in line for line in lines)


def test_spectrum_closed_rejects_disconnected(tmp_path, capsys):
    from qwalkspec import Graph

    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    path = tmp_path / "two_triangles.g6"
    write_graph6_file(str(path), [two])
    code, _, err = run_cli(
        capsys, "spectrum", "--input", str(path), "--which", "s1", "--form", "closed"
    )
    assert code == 1
    assert "connected" in err


def test_spectrum_multigraph_file(tmp_path, capsys):
    path = tmp_path / "two.g6"
    write_graph6_file(str(path), [cycle_graph(3), cycle_graph(4)])
    code, out, _ = run_cli(
        capsys, "spectrum", "--input", str(path), "--which", "s1", "--form",
        "charpoly", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2
    assert payload[0]["id"].endswith("two.g6:1")
    assert payload[0]["degree"] == 6
    assert payload[1]["degree"] == 8


def test_deterministic_output(capsys):
    args = ("spectrum", "--generate", "paley:13", "--which", "s1", "--form", "charpoly")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bad_generator_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--generate", "paley:8", "--which", "a")
    assert code == 2
    assert "paley" in err


@pytest.mark.parametrize(
    "spec, err",
    [
        ("complete:0", "complete needs n >= 1, got 0"),
        ("complete_bipartite:0,2", "complete_bipartite needs parts >= 1, got (0,2)"),
        ("hypercube:0", "hypercube needs d >= 1, got 0"),
        ("circulant:2,1", "circulant needs n >= 3, got 2"),
        ("circulant:6", "circulant needs n and at least one connection"),
        ("rook:1", "rook needs m >= 2, got 1"),
        ("rook:1,1,1", "rook needs m (or m,m)"),
        ("petersen:3", "petersen takes 0 parameter(s), got 1"),
    ],
)
def test_every_generator_parameter_error_exits_2(spec, err, capsys):
    assert run_cli(capsys, "spectrum", "--generate", spec, "--which", "a") == (2, "", f"error: {err}\n")


def test_missing_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--which", "a")
    assert code == 2
    assert "no input graphs" in err


@pytest.mark.parametrize("command", ["batch", "verify"])
def test_input_file_without_graphs_is_named_exit_2(tmp_path, capsys, command):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, out, err = run_cli(capsys, command, "--input", str(empty), "--generate", "petersen")
    assert (code, out) == (2, "")
    assert err == f"error: {empty}: no graph in this --input file\n"


def test_bad_g6_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C~\n\x1e\x1e\n")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "bad.g6:2" in err


@pytest.mark.parametrize("command", [["batch"], ["verify"], ["spectrum", "--which", "a"]])
def test_g6_file_with_non_ascii_byte_exit_2(tmp_path, capsys, command):
    path = tmp_path / "utf8.g6"
    path.write_bytes(b"C~\n\xc3\xa9\n")
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:2: byte 195 out of range [63, 126] at offset 0\n"


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qwalkspec.cli", "verify", "--generate", "cycle:3",
         "--checks", "identities"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_usage_error_exit_2():
    result = subprocess.run(
        [sys.executable, "-m", "qwalkspec.cli", "spectrum", "--which", "zz",
         "--generate", "cycle:3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


def test_qwalk_log_env():
    """cycle:120's A has r = 2 and 2^120 >= 2^53, so the trace route refuses it, and 61 distinct
    eigenvalues, with 2^61 >= 2^52, send it on to the kernel for "bound"."""
    import os

    argv = [sys.executable, "-m", "qwalkspec.cli", "batch", "--generate", "cycle:120",
            "--generate", "circulant:120,1"]
    env = dict(os.environ, QWALK_LOG="debug")
    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "profiling" in result.stderr
    # the adjacency polys' pass; no pass runs on S+(U^3)
    assert "route=hessenberg reason=bound n=120 primes=" in result.stderr
    assert "certificate circulant:120,1 vs cycle:120: s3 cospectral by isomorphism witness" in result.stderr
    env.pop("QWALK_LOG")
    quiet = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, result.stdout, "")


def test_qwalk_log_debug_names_the_trace_route_of_small_adjacency_polys(capsys, monkeypatch):
    monkeypatch.setenv("QWALK_LOG", "debug")
    code, out, err = run_cli(capsys, "batch", "--threads", "1", "--generate", "cycle:4",
                             "--generate", "circulant:4,1")  # no forked worker, whose stderr capsys misses
    assert code == 0 and "profiling" in err
    assert err.count("charpoly route=traces n=4 ms=") == 2 and "route=hessenberg" not in err
    assert "certificate circulant:4,1 vs cycle:4: s3 cospectral by isomorphism witness" in err


def test_each_main_call_applies_its_own_qwalk_log(capsys, monkeypatch):
    argv = ("compare", "shrikhande", "rook:4")
    monkeypatch.delenv("QWALK_LOG", raising=False)
    quiet = run_cli(capsys, *argv)
    assert quiet[0] == 0 and quiet[2] == ""
    monkeypatch.setenv("QWALK_LOG", "debug")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == quiet[:2]  # the verdicts print the same bytes
    assert "DEBUG:qwalkspec.invariants:certificate shrikhande vs rook:4:" \
        " s3 distinguished by trace mismatch i=3" in err
    monkeypatch.delenv("QWALK_LOG")
    assert run_cli(capsys, *argv) == quiet


@pytest.mark.parametrize("value", ["basic_format", "no_such_level", ""])
def test_a_qwalk_log_that_names_no_level_means_warning(value, capsys, monkeypatch):
    # logging.BASIC_FORMAT is a name of logging's, but a str, not a level
    argv = ("compare", "cycle:5", "cycle:5")
    monkeypatch.delenv("QWALK_LOG", raising=False)
    quiet = run_cli(capsys, *argv)
    monkeypatch.setenv("QWALK_LOG", value)
    assert run_cli(capsys, *argv) == quiet and quiet[0] == 0 and quiet[2] == ""
    monkeypatch.setenv("QWALK_LOG", "Debug")  # a level name, in any case
    assert "DEBUG:qwalkspec.invariants:certificate cycle:5#1 vs cycle:5#2:" in run_cli(capsys, *argv)[2]


def test_main_leaves_the_loggers_as_it_found_them(capsys, monkeypatch):
    root, ours = logging.getLogger(), logging.getLogger("qwalkspec")
    before = (root.level, list(root.handlers), ours.level, list(ours.handlers))
    monkeypatch.setenv("QWALK_LOG", "debug")
    assert run_cli(capsys, "compare", "shrikhande", "rook:4")[0] == 0
    assert (root.level, root.handlers, ours.level, ours.handlers) == before


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_batch_output_is_the_same_with_debug_logging(fmt, capsys, monkeypatch):
    argv = ("batch", "--threads", "1", "--format", fmt, "--generate", "shrikhande",
            "--generate", "rook:4", "--generate", "circulant:16,1,2,5", "--generate", "cycle:5")
    monkeypatch.delenv("QWALK_LOG", raising=False)
    quiet = run_cli(capsys, *argv)
    monkeypatch.setenv("QWALK_LOG", "debug")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == quiet[:2] and quiet[2] == ""
    assert err.count("DEBUG:qwalkspec.invariants:certificate ") == 3


def test_missing_input_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--input", "/nonexistent/x.g6")
    assert code == 2
    assert "x.g6" in err


# Runs each argv through main() in one interpreter and prints [[exit code, stdout, stderr]].
_CLI_RUNS = """
import contextlib, io, json, sys
{prelude}
from qwalkspec.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_cli_runs_without_scipy():
    runs = [
        ["spectrum", "--which", which, "--form", "numeric", "--generate", "petersen"]
        for which in ("a", "s1", "s3")
    ] + [
        ["verify", "--checks", "all", "--generate", "petersen"],
        ["compare", "shrikhande", "rook:4"],
        ["batch", "--threads", "1", "--generate", "petersen", "--generate", "shrikhande",
         "--generate", "rook:4"],
    ]

    def run(prelude):
        result = subprocess.run(
            [sys.executable, "-c", _CLI_RUNS.format(prelude=prelude), json.dumps(runs)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    # A None entry in sys.modules makes every import of scipy raise ImportError.
    blocked = run('sys.modules["scipy"] = None')
    assert [code for code, _, _ in blocked] == [0] * len(runs)
    assert blocked == run("")


_WRITE_CASES = {
    "spectrum": ("spectrum", "--which", "s1", "--generate", "petersen", "--generate", "cycle:5"),
    "verify": ("verify", "--generate", "petersen", "--generate", "cycle:5"),
    "compare": ("compare", "shrikhande", "rook:4"),
    "batch": ("batch", "--threads", "1", "--generate", "petersen", "--generate", "shrikhande",
              "--generate", "rook:4"),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", list(_WRITE_CASES))
def test_output_file_holds_the_bytes_stdout_prints(command, fmt, tmp_path, capsys):
    argv = (*_WRITE_CASES[command], "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    path = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--output", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("form", ["closed", "numeric"])
def test_spectrum_json_payload_of_one_graph_is_an_object_and_of_several_a_list(form, capsys):
    """Key order, entry types and exact ints of the payload; floats are compared as numbers."""
    from oracles import max_matching_distance
    from qwalkspec import closed_form_spectrum_su

    argv = ("spectrum", "--which", "s1", "--form", form, "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--generate", "petersen")
    assert code == 0
    one = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--generate", "petersen", "--generate", "complete:4")
    assert code == 0
    several = json.loads(out)
    assert isinstance(one, dict) and isinstance(several, list) and several[0] == one
    for payload, spec in zip(several, ("petersen", "complete:4")):
        g = parse_generator_spec(spec)
        k = g.valency
        expected = closed_form_spectrum_su(g)
        if form == "numeric":
            assert list(payload) == ["id", "which", "form", "values"]
            assert payload["id"] == spec and payload["form"] == "numeric"
            values = [complex(v.replace("i", "j")) for v in payload["values"]]
            assert max_matching_distance(values, expected.numeric_values()) < 1e-9
            continue
        assert list(payload) == ["id", "which", "form", "spectrum"]
        assert (payload["id"], payload["which"], payload["form"]) == (spec, "s1", "closed")
        spectrum = payload["spectrum"]
        assert list(spectrum) == ["n", "k", "entries"]
        assert (spectrum["n"], spectrum["k"]) == (g.n, k)
        total = 0
        for entry, e in zip(spectrum["entries"], expected.entries, strict=True):
            assert type(entry["multiplicity"]) is int and entry["multiplicity"] == e.multiplicity
            if entry["type"] == "rational":
                assert list(entry) == ["type", "value", "multiplicity"]
                assert type(entry["value"]) is int and entry["value"] == e.value
                total += entry["multiplicity"]
            else:
                assert list(entry) == ["type", "root_sum", "root_product", "multiplicity",
                                       "conjugate"]
                assert entry["type"] == "quadratic-pair" and entry["conjugate"] is e.conjugate
                assert type(entry["root_product"]) is int and entry["root_product"] == k - 1
                assert abs(entry["root_sum"] - e.root_sum) < 1e-12
                total += 2 * entry["multiplicity"]
        assert total == g.n * k
