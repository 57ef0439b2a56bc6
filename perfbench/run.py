"""ringtrap benchmark: one workload of CLI invocations in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload map --seed 0 --seconds 20 --trace 0

One caller runs ``ringtrap.cli.main`` in-process; each invocation starts only
after the previous one has finished. A pass runs every invocation of the
workload once, into a fresh temporary directory that is deleted before the
next pass. Every invocation is checked (exit code, physics check of its
report, byte-identity of every output file against the first pass).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes plus the tracing overhead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Full
results, the environment record and the spans of a traced run go to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: BLAS reads these when numpy loads, so they are set before any import of
#: numpy; one thread each keeps the load within a small shared machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh interpreters timed per run for ``setup_s``; the median is reported
SETUP_REPEATS = 9
SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"
RSS_CHILD = Path(__file__).resolve().parent / "rss_child.py"
SETUP_TIMEOUT_S = 60
SETUP_CALIBRATION = "loop"

#: timed passes per run even when ``--seconds`` is short
MIN_PASSES = 4

#: per-layer units scaled to reference speed, like the pass they come from
TIME_UNITS = ("s", "ns", "us")


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _digests(outdir: Path) -> tuple:
    """sha256 of every output file, read in blocks, and their total bytes."""
    digests, total = {}, 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[str(path.relative_to(outdir))] = h.hexdigest()
        total += path.stat().st_size
    return digests, total


class Runner:
    """Runs passes of one workload and keeps the outcome of every invocation."""

    def __init__(self, invocations, cli, scratch: Path):
        self.invocations = invocations
        self.cli = cli
        self.scratch = scratch
        self.reference = {}  # invocation label -> digests of its first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None) -> float:
        """Run every invocation once; return the summed invocation time."""
        passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.scratch))
        try:
            elapsed = 0.0
            for inv in self.invocations:
                outdir = passdir / inv.label
                argv = inv.argv(outdir)
                start = time.perf_counter()
                try:
                    if tracer is None:
                        code = self.cli.main(argv)
                    else:
                        code, span = tracer.invoke(self.cli.main, argv)
                except Exception as err:  # a crash is one failed invocation
                    code, span = f"{type(err).__name__}: {err}", None
                elapsed += time.perf_counter() - start
                bytes_written = self._check(inv, code, outdir)
                if tracer is not None and span is not None:
                    span.counters["bytes"] = bytes_written
            return elapsed
        finally:
            shutil.rmtree(passdir)

    def _check(self, inv, code, outdir: Path) -> int:
        """Record the invocation's outcome; return the bytes it wrote."""
        self.attempted += 1
        problems, total = [], 0
        if code != 0:
            problems.append(f"exit code {code}" if isinstance(code, int) else f"raised {code}")
        else:
            try:
                problems.extend(inv.check(outdir))
            except (OSError, KeyError, ValueError) as err:
                problems.append(f"unreadable report: {type(err).__name__}: {err}")
            digests, total = _digests(outdir)
            ref = self.reference.setdefault(inv.label, digests)
            if digests != ref:
                changed = sorted(k for k in ref.keys() | digests.keys()
                                 if ref.get(k) != digests.get(k))
                problems.append(f"outputs differ from the first pass: {', '.join(changed)}")
        if problems:
            self.failed += 1
            self.problems.append({"invocation": inv.label, "problems": problems})
        return total


def _setup_times(config: Path) -> list:
    """Import-and-load time of fresh interpreters, each with the
    reference-speed factor of its own calibration: ``[(seconds, factor)]``.
    Interpreter start-up itself is not the package's and is not counted."""
    from calibration import factor

    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", str(SETUP_CHILD), str(SRC), str(config)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        seconds, before, after = json.loads(proc.stdout)
        out.append((seconds, factor(SETUP_CALIBRATION, before, after)))
    return out


def _peak_rss_mb(workload: str, seed: int, scratch: Path) -> float:
    """Peak resident memory of one pass of the workload in its own process."""
    proc = subprocess.run(
        [sys.executable, str(RSS_CHILD), workload, str(seed), str(scratch)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed:\n{proc.stderr}")
    return float(proc.stdout)


def _environment(ringtrap, numpy) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ringtrap": ringtrap.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def _measure(runner: Runner, seconds: float, task: str, tracer=None) -> list:
    """Warm up, then run passes until ``seconds`` have passed.

    Without a tracer every pass is untraced; with one, passes alternate
    untraced and traced. The calibration ``task`` runs before every pass
    and after the last. Returns one ``(wall seconds, reference-speed factor,
    layer metrics or None)`` per pass.
    """
    from calibration import calibration_s, factor
    from tracing import layer_metrics

    runner.run_pass()  # warm-up: caches, lazy imports, first page faults
    walls, layers, cals = [], [], [calibration_s(task)]
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(walls) % 2 == 1:
            first = len(tracer.spans)
            with tracer.installed():
                walls.append(runner.run_pass(tracer))
            layers.append(layer_metrics(tracer.spans[first:]))
        else:
            walls.append(runner.run_pass())
            layers.append(None)
        cals.append(calibration_s(task))
        if (time.perf_counter() >= deadline and len(walls) >= MIN_PASSES
                and (tracer is None or len(walls) % 2 == 0)):
            break
    factors = [factor(task, a, b) for a, b in zip(cals, cals[1:])]
    return list(zip(walls, factors, layers))


def _end_to_end(runner: Runner, seconds: float, task: str, config: Path,
                peak_mb: float, record: dict) -> dict:
    setup = _setup_times(config)
    passes = _measure(runner, seconds, task)
    record["wall_s"] = _quartiles([w for w, _, _ in passes])
    record["wall_ref_s"] = _quartiles([w * f for w, f, _ in passes])
    record["setup_raw_s"] = _quartiles([t for t, _ in setup])
    record["setup_s"] = _quartiles([t * f for t, f in setup])
    return {
        "wall_ref_s": (record["wall_ref_s"]["median"], "s"),
        "setup_s": (record["setup_s"]["median"], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _per_layer(runner: Runner, seconds: float, task: str, record: dict, tracer) -> dict:
    from tracing import LAYER_UNITS

    passes = _measure(runner, seconds, task, tracer)
    plain = [w * f for w, f, m in passes if m is None]
    traced = [(w * f, f, m) for w, f, m in passes if m is not None]
    record["untraced_wall_ref_s"] = _quartiles(plain)
    record["traced_wall_ref_s"] = _quartiles([w for w, _, _ in traced])
    out = {}
    for name, unit in LAYER_UNITS.items():
        scaled = unit in TIME_UNITS
        values = [m[name] * (f if scaled else 1.0) for _, f, m in traced]
        out[name] = (statistics.median(values), unit)
    overhead = record["traced_wall_ref_s"]["median"] - record["untraced_wall_ref_s"]["median"]
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "ringtrap" / "__init__.py").is_file():
        print(f"perfbench: no ringtrap package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy

    import ringtrap
    import ringtrap.cli
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    env = _environment(ringtrap, numpy)
    task = workloads.CALIBRATION[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "calibration": task, "environment": env}
    try:
        invocations = workloads.build(args.workload, args.seed, scratch / "configs")
        runner = Runner(invocations, ringtrap.cli, scratch)
        if args.trace:
            tracer = Tracer()
            metrics = _per_layer(runner, args.seconds, task, record, tracer)
            record["untraced_sites"] = tracer.missing
            tracer.dump(OUT / f"spans-{args.workload}.json", record)
        else:
            peak_mb = _peak_rss_mb(args.workload, args.seed, scratch / "rss")
            metrics = _end_to_end(runner, args.seconds, task, invocations[0].config,
                                  peak_mb, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["fail_frac"] = runner.failed / runner.attempted
    record["problems"] = runner.problems
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key in ("wall_s", "wall_ref_s", "setup_raw_s", "setup_s", "untraced_wall_ref_s", "traced_wall_ref_s"):
        if key in record:
            q = record[key]
            print(f"{key:<20} median {q['median']:.6f} s  q1 {q['q1']:.6f}  "
                  f"q3 {q['q3']:.6f}  n {q['n']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:.6g} {unit}")
    print(f"fail_frac {runner.failed}/{runner.attempted} = {record['fail_frac']:.6g}")
    for site in record.get("untraced_sites", []):
        print(f"untraced site (name not found): {site}", file=sys.stderr)
    for item in runner.problems[:10]:
        print(f"FAILED {item['invocation']}: {'; '.join(item['problems'])}",
              file=sys.stderr)
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
