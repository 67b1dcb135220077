"""Self-test of the benchmark's correctness gate.

A corrupted golden and a flipped expected verdict must each be caught: the
run reports failed ops and exits non-zero.  Run from the repository root:

    python3 -m pytest benchmarks/test_gate.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")


def run_with(goldens: dict, workload: str, name: str):
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0", "--goldens", path],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_intact_goldens_pass():
    code, result = run_with(goldens(), "relabel_small", "intact.json")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_corrupted_golden_fails():
    data = goldens()
    data["profiles"]["petersen"]["s3"][0] += 1
    code, result = run_with(data, "relabel_small", "corrupted.json")
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1


def test_flipped_verdict_fails():
    data = goldens()
    verdicts = data["verdicts"]["shrikhande|rook:4"]
    assert verdicts["s3"] == "distinguished"
    verdicts["s3"] = "cospectral"
    code, result = run_with(data, "srg_ladder", "flipped.json")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
