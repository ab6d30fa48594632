"""Seeded session benchmark for irrtop.

    python3 perfbench/run.py --workload topology|structure|embed --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. A run builds the workload's session
from the seed, writes its input files, and plays the session as one client
in a closed loop: every command runs in-process through
``irrtop.cli.run(argv)`` with ``--format structured`` and starts when the
previous one returns. Whole passes over the session repeat until about
``--seconds`` have passed: a further pass starts only if less than half of it
is expected to fall beyond that time (at least one pass). Every
output is then checked against theory, and each pass after the first must
reproduce the first byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace
1`` it plays one untraced and one traced pass and reports the per-layer
metrics of the traced pass. The last line of standard output is one JSON
object; a fuller record goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
from workloads import SESSIONS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 8  # fresh imports per run, half before and half after the session


def _fresh_interpreter_s(code: str) -> float:
    """Wall time of one fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL)
    # A blocking wait: waiting with a timeout polls and rounds the time up to 50 ms steps.
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, code)
    return time.perf_counter() - t0


def _write_inputs(session, work: Path) -> float:
    t0 = time.perf_counter()
    for name, text in session.files.items():
        (work / name).write_text(text, encoding="utf-8")
    return time.perf_counter() - t0


def _play(cli, commands) -> tuple[list[float], list[tuple[int, str]], float]:
    """One pass over the session: per-command latencies, outputs, wall time.
    ``cli.run`` is looked up per call so that a traced pass sees the tracer's
    binding."""
    latencies, outputs = [], []
    start = time.perf_counter()
    for cmd in commands:
        argv = cmd.argv + ["--format", "structured"]
        t0 = time.perf_counter()
        outputs.append(cli.run(argv))
        latencies.append(time.perf_counter() - t0)
    return latencies, outputs, time.perf_counter() - start


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for _, out in outputs:
        h.update(out.encode("utf-8"))
    return h.hexdigest()


def _environment(args, session, attempted: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "commands_per_pass": len(session.commands),
        "commands_per_run": attempted,
        "setup_repeats": SETUP_REPEATS,
    }


def _failures(commands, passes) -> list[str]:
    """One line per failed command of every pass: theory checks, plus
    byte-identity of every later pass with the first."""
    found = []
    for k, outputs in enumerate(passes):
        for i, (cmd, problems) in enumerate(zip(commands, checks.check_session(commands, outputs))):
            if k and outputs[i] != passes[0][i]:
                problems.append("output differs from the first pass")
            if problems:
                found.append(f"pass {k} command {i} ({' '.join(cmd.argv)}): {'; '.join(problems)}")
    return found


def _measure(args, cli, commands):
    """Play the session: untraced passes for about ``args.seconds``, or one
    untraced and one traced pass. Returns (outputs per pass, latencies of
    the timed passes, pass wall times, tracer or None)."""
    if args.trace:
        from tracer import Tracer

        _, plain, plain_wall = _play(cli, commands)
        with Tracer() as tracer:
            _, traced, traced_wall = _play(cli, commands)
        return [plain, traced], [], [plain_wall, traced_wall], tracer
    passes, latencies, walls = [], [], []
    begin = time.perf_counter()
    while True:
        lat, outs, wall = _play(cli, commands)
        passes.append(outs)
        latencies += lat
        walls.append(wall)
        # Stop where one more pass would overshoot by more than half of it.
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
            return passes, latencies, walls, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SESSIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "irrtop" / "cli.py").is_file():
        print(f"error: no irrtop sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    # One thread per run: pin BLAS/OpenMP pools before numpy is first imported
    # here or in the set-up processes.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    session = SESSIONS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        # Set-up: what every CLI user pays before work (a fresh import of the
        # CLI), plus writing the session's inputs. The imports are split
        # around the session so that their median samples two moments of the
        # host's load.
        imports_s = [_fresh_interpreter_s("import irrtop.cli") for _ in range(SETUP_REPEATS // 2)]
        write_s = _write_inputs(session, work)
        bare_s = [_fresh_interpreter_s("pass") for _ in range(SETUP_REPEATS)] if args.trace else []
        sys.path.insert(0, str(SRC))
        import irrtop.cli as cli

        os.chdir(work)
        passes, latencies, walls, tracer = _measure(args, cli, session.commands)
        imports_s += [_fresh_interpreter_s("import irrtop.cli") for _ in range(SETUP_REPEATS - len(imports_s))]
        setup_s = statistics.median(imports_s) + write_s
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = _failures(session.commands, passes)
    attempted = len(session.commands) * len(passes)
    record = {
        "environment": _environment(args, session, attempted),
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "output_sha256": _digest(passes[0]),
        "failures": failures[:50],
    }
    if args.trace:
        values = metrics.per_layer(
            tracer,
            import_s=statistics.median(imports_s) - statistics.median(bare_s),
            overhead_ratio=walls[1] / walls[0],
        )
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        record["spans"] = {"file": spans_path.name, "count": tracer.write_spans(str(spans_path))}
        record["layer_predictions"] = {m.name: {"moves": m.moves, "on": m.on, "flat": m.flat} for m in metrics.PER_LAYER}
        record["span_calls"] = dict(sorted(tracer.calls.items()))
    else:
        values = metrics.end_to_end(latencies, sum(walls), setup_s, peak_rss_mb)
        units = metrics.END_TO_END
        record["samples"] = {
            "commands": len(latencies),
            "beyond_p90": sum(1 for t in latencies if t * 1000.0 > values["cmd_p90_ms"]),
            "setup_imports": len(imports_s),
        }
        record["pass_walls_s"] = walls
        record["latencies_ms"] = [round(t * 1000.0, 3) for t in latencies]
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, val in record["environment"].items():
        print(f"env.{key}: {val}")
    for key in ("passes", "attempted", "failed", "fail_ratio", "output_sha256"):
        print(f"{key}: {record[key]}")
    for key, val in record.get("samples", {}).items():
        print(f"samples.{key}: {val}")
    for line in failures[:10]:
        print(f"FAIL {line}")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"record: {result_path.relative_to(ROOT)}")
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": record["metrics"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
