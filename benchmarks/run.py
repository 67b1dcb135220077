"""Benchmark of qwalkspec: four workloads, end to end and layer by layer.

One workload per process, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

builds its inputs from the seed, sets up, warms up with one op, runs timed
passes, checks every result against goldens outside the timed region, and
prints the metrics, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs every second pass under the timing
shims of ``tracer.py`` and reports the per-layer metrics.  A failed op makes
the exit code 1.

Passes run on fresh inputs until ``--seconds`` is spent.  Every op time is
reported in nominal seconds: each raw latency is scaled by the host's
speed, measured between groups of ops (see ``hostspeed.py``).  ``wall_s``
is the mean over passes of a pass's summed op times, and
``op_p50_s``/``op_tail_s`` are taken over every latency sample of the run.
``setup_s`` stays in raw seconds, the median of seven set-ups: it is mostly
imports, which barely slow when the host does (a 2x slower reference
computation made set-up about 11% slower), so scaling it would distort it.

Other modes:

    python3 benchmarks/run.py --all [--seed N] [--seconds S] [--out FILE]
        every workload, untraced then traced, each in its own process; prints
        all end-to-end metrics with units and writes a JSON report.
    python3 benchmarks/run.py --check-threads [--seed N]
        batch CSV byte-identical between --threads 1 and --threads 2.
    python3 benchmarks/run.py --regen-goldens
        recompute goldens.json, recording each golden only after its
        independent cross-checks pass (see goldens.py).

``BENCHMARK.json`` gates on ``batch_cli`` and ``verify_cli`` only: between
them they reach every layer, and two workloads leave room for 45 s runs,
which a shared 2-vCPU VM needs for steady figures.  ``srg_ladder`` and
``relabel_small`` run the same way, and in ``--all``.

The program is imported from ``src/`` of the checkout this file sits in;
inputs and scratch files go to ``benchmarks/.work``.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.relpath(HERE, ROOT)
WORKDIR = os.path.join(BENCH_DIR, ".work")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median of these + 1
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qwalkspec", "__init__.py")):
        sys.stderr.write(f"error: no qwalkspec sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import qwalkspec

    if os.path.dirname(os.path.dirname(os.path.abspath(qwalkspec.__file__))) != src:
        sys.stderr.write(f"error: imported qwalkspec from {qwalkspec.__file__}, not {src}\n")
        sys.exit(2)


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten samples beyond it.

    With 20 samples or fewer that percentile would sit at or below the median,
    so the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > 20:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def setup_probes(args) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--goldens", args.goldens, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


@dataclass
class Pass:
    wall: float  # raw seconds of the whole pass; read in trace runs, which time no reference
    latencies: list  # raw seconds per latency sample
    scaled: list  # nominal seconds per latency sample; empty in trace runs
    ok: list  # one flag per op
    traced: bool


def measure(wl, seconds: float, tracer=None) -> list:
    """Run passes, each on fresh inputs, for about ``seconds``.

    No pass starts that the previous one says would end past the budget, so
    a run keeps to it on a slow machine too.  Without a tracer, the host
    reference is timed between groups of ops; with one, it is not, and every
    second pass runs under the tracer's shims.
    """
    from workloads import Recorder

    done = []
    start = perf_counter()
    step = 0.0  # the last pass, with its input making and check
    min_passes = 2 if tracer is not None else 1
    last_ref = None
    while len(done) < min_passes or perf_counter() - start + step <= seconds:
        step_start = perf_counter()
        i = len(done)
        inputs = wl.make_inputs()
        traced = tracer is not None and i % 2 == 1
        rec = Recorder(None if tracer is not None
                       else lambda budget_s: hostspeed.reference(wl.threads, budget_s), last_ref)
        if traced:
            tracer.install()
        began = perf_counter()
        outputs = wl.run_pass(inputs, rec)
        wall = perf_counter() - began
        if traced:
            tracer.uninstall()
        rec.mark()
        last_ref = rec.refs[-1] if rec.refs else None
        ok = wl.check(inputs, outputs)
        if not all(ok):
            sys.stderr.write(f"pass {i}: {ok.count(False)} of {len(ok)} ops failed\n")
            for out in outputs if isinstance(outputs, list) else [outputs]:
                if isinstance(out, Exception):
                    sys.stderr.write(f"  {type(out).__name__}: {out}\n")
        scaled = rec.scaled() if tracer is None else []
        done.append(Pass(wall, rec.latencies, scaled, ok, traced))
        step = perf_counter() - step_start
    return done


def run_workload(args) -> int:
    import goldens
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, goldens.load(args.goldens), WORKDIR)
    wl.warmup()
    setup_s = perf_counter() - START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    notes, table = {}, []
    if args.trace:
        from tracer import PER_LAYER, Tracer

        tracer = Tracer(batch_workers=workloads.BATCH_THREADS)
        run = measure(wl, args.seconds, tracer)
        traced = [p.wall for p in run if p.traced]
        overhead = min(traced) - min(p.wall for p in run if not p.traced)
        metrics = tracer.metrics(len(traced), sum(traced), overhead)
        table = [f"{'layer':<30} {'self_s/pass':>12} {'calls/pass':>11}"]
        for layer, self_s, calls in tracer.layer_table(len(traced)):
            table.append(f"{layer:<30} {self_s:>12.6f} {calls:>11.1f}")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        run = measure(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + setup_probes(args)
        wall = statistics.fmean(sum(p.scaled) for p in run)
        lat = [x for p in run for x in p.scaled]
        tail_value, tail_pct, tail_n = tail(lat)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": len(run[0].ok) / wall,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_value,
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
        raw_wall = statistics.fmean(sum(p.latencies) for p in run)
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"mean of {len(run)} passes' summed op times; raw {raw_wall:.4g} s,"
                      f" so the host ran at {wall / raw_wall:.3g} x nominal speed",
            "op_p50_s": f"{len(lat)} samples of {wl.latency_op or wl.op_unit}",
            "op_tail_s": f"p{tail_pct:.2f} of {tail_n} samples",
        }

    print(f"workload {wl.name}  seed {args.seed}  passes {len(run)}  op: {wl.op_unit}")
    for line in table:
        print(line)
    failed = sum(p.ok.count(False) for p in run)
    attempted = sum(len(p.ok) for p in run)
    for name, value in metrics.items():
        print(f"{name:<34} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}".rstrip())
    print(f"{'failed_ops_ratio':<34} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} ops")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    if args.report:
        details = dict(result, workload=wl.name, why=wl.why, op_unit=wl.op_unit,
                       latency_op=wl.latency_op or wl.op_unit, passes=len(run), notes=notes)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    import numpy
    import tracer
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    report = {
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
        "predictions": tracer.PREDICTIONS,
    }
    status = 0
    for name in workloads.WORKLOADS:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            path = os.path.join(WORKDIR, f"report-{name}-{trace}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--goldens", args.goldens, "--report", path]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            with open(path, encoding="utf-8") as fh:
                details = json.load(fh)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = details.pop("metrics")
            if not trace:
                entry.update(details)
    print(f"\n{'workload':<14} " + " ".join(f"{m:>14}" for m, _ in END_TO_END) + f" {'failed_ratio':>14}")
    for name, entry in report["workloads"].items():
        cells = [f"{entry['end_to_end'][m]['value']:>10.4g} {u:<3}" for m, u in END_TO_END]
        print(f"{name:<14} " + " ".join(cells) + f" {entry['failed'] / entry['attempted']:>14.4g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if status else 0


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform()}


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def check_threads(args) -> int:
    import goldens
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.BatchCli(args.seed, goldens.load(args.goldens), WORKDIR)
    outputs = {t: workloads.run_cli(wl.argv(wl.path, threads=t)) for t in (1, 2)}
    problems = [f"--threads {t}: {p}" for t, out in outputs.items() for p in wl.csv_problems(out)]
    if outputs[1][1] != outputs[2][1]:
        problems.append("CSV differs between --threads 1 and --threads 2")
    for p in problems:
        print(p)
    print(f"batch CSV over {len(wl.members)} graphs: "
          + ("byte-identical for --threads 1 and 2" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("srg_ladder", "relabel_small", "batch_cli", "verify_cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", default=GOLDENS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--check-threads", action="store_true")
    parser.add_argument("--regen-goldens", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--report", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    import_program()
    if args.regen_goldens:
        import goldens

        goldens.regenerate(args.goldens)
        return 0
    if args.all:
        return run_all(args)
    if args.check_threads:
        return check_threads(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
