"""Benchmark of the ncpseq command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

--trace 0 runs the workload's script of CLI calls (`python -m ncpseq ...`)
as child processes, one at a time, pass after pass for --seconds, checks
every output, and reports the end-to-end metrics: the wall time of one
pass (each call's median summed), items per second, child CPU, peak child
RSS, set-up time, and the error rate as failed/attempted.  --trace 1 runs the same script in this
process through ncpseq.cli.main with wrapped layer functions and reports
the per-layer metrics (see tracing.py).  --smoke shrinks every input so
all workloads and metrics run in seconds.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it is the run record (commit, Python,
backend, nproc, seed and the full sample statistics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import Call, Outcome, Tally, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
BASELINE = HERE / "baseline.json"

# Every run must end well inside three minutes, whatever --seconds says.
DEADLINE_S = 170
# Samples of the smallest call: taken before the passes (after one
# untimed warm-up call), and after each pass, which also runs it once.
SETUP_SAMPLES = 4
SETUP_PER_PASS = 3
IMPORT_SAMPLES = 5


class BenchError(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def src_digest() -> str:
    """SHA-256 over the package's Python sources, naming the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ncpseq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def probe(env: dict[str, str]) -> dict:
    """Backend, version and import location, from a fresh interpreter."""
    code = (
        "import json, ncpseq; print(json.dumps({'backend': ncpseq.BACKEND, "
        "'version': ncpseq.__version__, 'file': ncpseq.__file__}))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if res.returncode != 0:
        raise BenchError(f"cannot import ncpseq from {SRC}: {res.stderr.strip()[-300:]}")
    info = json.loads(res.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ncpseq resolved to {info['file']}, not to this checkout")
    return info


def import_seconds(env: dict[str, str]) -> float:
    """Median `import ncpseq` time in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import ncpseq; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=60,
        )
        if res.returncode != 0:
            raise BenchError(f"import ncpseq failed: {res.stderr.strip()[-300:]}")
        samples.append(float(res.stdout))
    return statistics.median(samples)


class Launcher:
    """The small process (launch.py) that spawns and reaps every CLI child.

    Start it before the benchmark holds any inputs: a child's peak RSS
    starts from its spawner's.  Closing it kills its process group, so no
    child outlives the run.
    """

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def run(self, call: Call) -> Outcome:
        out, err = WORK / f"{call.name}.out", WORK / f"{call.name}.err"
        req = {
            "argv": [sys.executable, "-m", "ncpseq", *call.argv],
            "stdin": str(call.stdin) if call.stdin else None,
            "out": str(out),
            "err": str(err),
        }
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the child launcher died")
        rep = json.loads(line)
        text = out.read_text(encoding="utf-8", errors="replace")
        return Outcome(rep["code"], text, rep["wall"], rep["cpu"], rep["rss_mb"])

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the launcher already died
            pass
        try:
            self.proc.wait(timeout=5 if exc[0] is None else 0.1)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def check(call: Call, res: Outcome, tally: Tally) -> int:
    try:
        return call.check(res.code, res.out, tally)
    except BenchError:
        raise
    except Exception as exc:  # a malformed output must count as a failure, not crash
        tally.expect(False, f"{call.name}: check raised {exc!r}")
        return 0


def tail(values: list[float]) -> dict | None:
    """Highest of p99/p90/p50 with at least ten samples beyond it, or None."""
    for pct in (99, 90, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return {"pct": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}
    return None


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "count": len(values), "tail": tail(values),
            "samples": values}


def cli_run(
    wl: Workload, seconds: float, tally: Tally, launcher: Launcher
) -> tuple[dict, dict]:
    """Untraced passes of the script as child processes, for --seconds.

    A pass's wall and CPU time are estimated as the sum over its calls of
    each call's median across passes, so that a burst of contention from
    outside spoils one call's sample rather than a whole pass.
    """
    setup = wl.calls[0]
    launcher.run(setup)  # warm-up: byte-code caches, file cache
    setup_s = []

    def sample_setup(times: int) -> None:
        for _ in range(times):
            res = launcher.run(setup)
            check(setup, res, tally)
            setup_s.append(res.wall)

    sample_setup(SETUP_SAMPLES)
    walls: dict[str, list[float]] = {c.name: [] for c in wl.calls}
    cpus: dict[str, list[float]] = {c.name: [] for c in wl.calls}
    pass_walls, rss = [], []
    started = time.perf_counter()
    while True:
        items = 0
        peak = 0.0
        for call in wl.calls:
            res = launcher.run(call)
            items += check(call, res, tally)
            walls[call.name].append(res.wall)
            cpus[call.name].append(res.cpu)
            peak = max(peak, res.rss_mb)
        setup_s.append(walls[setup.name][-1])
        pass_walls.append(sum(w[-1] for w in walls.values()))
        rss.append(peak)
        sample_setup(SETUP_PER_PASS)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    wall_s = sum(statistics.median(w) for w in walls.values())
    metrics = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus.values()), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    detail = {
        "pass_wall_s": stats(pass_walls),
        "call_wall_s": {name: stats(w) for name, w in walls.items()},
        "call_cpu_s": {name: stats(c) for name, c in cpus.items()},
        "peak_rss_mb": stats(rss),
        "setup_s": stats(setup_s),
        "items_per_pass": items,
    }
    return metrics, detail


def trace_run(
    wl: Workload, seconds: float, tally: Tally, seed_tree: bool, env: dict[str, str]
) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes, for --seconds."""
    import_s = import_seconds(env)
    sys.path.insert(0, str(SRC))
    import tracing  # imports ncpseq

    if not Path(tracing.ncpseq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ncpseq resolved to {tracing.ncpseq.__file__}")
    tracer = tracing.Tracer()
    plain, traced, summaries, items = [], [], [], 0
    started = time.perf_counter()
    while True:
        plain.append(in_process_pass(wl, tracer, tally)[0])
        tracer.reset()
        tracer.install()
        try:
            wall, items = in_process_pass(wl, tracer, tally)
        finally:
            tracer.uninstall()
        traced.append(wall)
        summaries.append(tracer.summary())
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    spans_file = WORK / f"spans-{wl.name}.json"
    tracer.write(spans_file)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = tracing.layer_metrics(summaries, items, wl.verify_sizes, import_s, overhead)
    problems = tracing.wiring_problems(wl.name, metrics, seed_tree)
    tally.expect(not problems, "wiring: " + "; ".join(problems))
    detail = {
        "untraced_wall_s": stats(plain),
        "traced_wall_s": stats(traced),
        "items_per_pass": items,
        "spans_per_pass": summaries[0]["spans"],
        "spans_file": str(spans_file.relative_to(ROOT)),
        "skipped_targets": tracer.missing,
    }
    return metrics, detail


def in_process_pass(wl: Workload, tracer, tally: Tally) -> tuple[float, int]:
    wall, items = 0.0, 0
    for request, call in enumerate(wl.calls):
        res = tracer.call_cli(request, call, WORK)
        items += check(call, res, tally)
        wall += res.wall
    return wall, items


def compare_with_baseline(record: dict, workload: str, metrics: dict, trace: bool) -> str:
    """One line: change against the committed seed baseline, if comparable."""
    if record["smoke"] or not BASELINE.exists():
        return "no seed baseline to compare with"
    base = json.loads(BASELINE.read_text())
    if base["backend"] != record["backend"]:
        return (
            f"not comparable with the seed baseline: backend {record['backend']}, "
            f"baseline {base['backend']}"
        )
    ref = base.get("per_layer" if trace else "end_to_end", {}).get(workload, {})
    parts = []
    for name, (value, _) in metrics.items():
        old = ref.get(name)
        if old:
            parts.append(f"{name} {100.0 * (value - old) / old:+.1f}%")
    return f"vs seed baseline ({base['commit'][:12]}): " + (", ".join(parts) or "nothing shared")


def seed_tree() -> bool:
    return BASELINE.exists() and json.loads(BASELINE.read_text())["src_sha256"] == src_digest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    def on_deadline(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        if not (SRC / "ncpseq" / "__init__.py").is_file():
            raise BenchError(f"no ncpseq sources under {SRC}")
        WORK.mkdir(exist_ok=True)
        for stale in WORK.iterdir():
            stale.unlink()
        env = child_env()
        info = probe(env)
        size = "smoke" if args.smoke else "full"
        tally = Tally()
        if args.trace:
            wl = workloads.build(args.workload, args.seed, size, WORK)
            metrics, detail = trace_run(wl, args.seconds, tally, seed_tree(), env)
        else:
            with Launcher(env) as launcher:
                wl = workloads.build(args.workload, args.seed, size, WORK)
                metrics, detail = cli_run(wl, args.seconds, tally, launcher)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "backend": info["backend"],
        "version": info["version"],
        "nproc": os.cpu_count(),
        "detail": detail,
    }
    error_rate = tally.failed / max(tally.attempted, 1)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:44s} {value:14.6g} {unit}")
    print(f"{args.workload:10s} {'error_rate':44s} {error_rate:14.6g} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    for name, st in detail.items():
        if isinstance(st, dict) and "median" in st and "tail" in st:
            tail = st["tail"]
            spread = f"p{tail['pct']} {tail['value']:.6g}" if tail else "no tail percentile"
            print(f"{args.workload:10s} {name:44s} median {st['median']:.6g} of "
                  f"{st['count']} samples, {spread}")
    for message in tally.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(compare_with_baseline(record, args.workload, metrics, bool(args.trace)))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
