import json
import subprocess
import sys

import pytest

from qwalkspec import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_generator_spec,
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


def test_spectrum_closed_form_unavailable_for_s3(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--generate", "petersen", "--which", "s3", "--form", "closed"
    )
    assert code == 1
    assert "no closed form" in err


def test_spectrum_closed_s2_requires_k3(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--generate", "cycle:4", "--which", "s2", "--form", "closed"
    )
    assert code == 1
    assert "k > 2" in err or "k >= 3" in err


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


def test_verify_identities_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--generate", "cycle:5", "--checks", "identities,ihara"
    )
    assert code == 0
    assert "identities" in out and "ihara" in out


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


def test_missing_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--which", "a")
    assert code == 2
    assert "no input graphs" in err


def test_bad_g6_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C~\n\x1e\x1e\n")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "bad.g6:2" in err


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
    import os

    env = dict(os.environ, QWALK_LOG="debug")
    result = subprocess.run(
        [sys.executable, "-m", "qwalkspec.cli", "batch", "--generate", "cycle:4",
         "--generate", "circulant:4,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "profiling" in result.stderr


def test_missing_input_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--input", "/nonexistent/x.g6")
    assert code == 2
    assert "x.g6" in err
