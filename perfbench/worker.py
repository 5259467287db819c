"""Benchmark worker: runs a workload's CLI calls in one process, closed loop.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py PLAN RESULT --seconds S [--trace]

The first thing the worker does is its own set-up (``import breedkit`` and
``cli.build_parser()``), which it times. It then repeats passes over the
plan's calls through ``breedkit.cli.main`` until ``S`` seconds have gone,
checking every call's exit code and artifacts, and times a fixed reference
loop around every pass (see ``reference_s``). With ``--trace`` the first
half of the window runs untraced and the second half traced, so the two
halves give the tracing overhead and must produce byte-identical artifacts.
Expects ``PYTHONPATH`` to hold breedkit's ``src`` and BLAS/OpenMP pinned to
one thread by the caller.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def setup() -> tuple[object, float]:
    """Import breedkit and build the CLI parser; return (cli, seconds since start)."""
    from breedkit import cli

    cli.build_parser()
    return cli, time.perf_counter() - _T0


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs passes over the plan's calls and keeps every call's verdict."""

    def __init__(self, cli, plan: dict):
        import checks

        self.cli = cli
        self.calls = plan["calls"]
        self.checks = checks.CHECKS
        self.reference = [None] * len(self.calls)  # first pass's artifact digest per call
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _verdict(self, i: int, rc) -> str | None:
        call = self.calls[i]
        if rc != 0:
            return f"{call['cmd']} call {i}: exit code {rc}"
        digest = _digest(call["out"])
        if self.reference[i] is None:
            problems = self.checks[call["check"]](call["out"], call["expect"])
            if problems:
                return f"{call['check']} call {i}: " + "; ".join(problems[:5])
            self.reference[i] = digest
        elif digest != self.reference[i]:
            return f"{call['check']} call {i}: artifacts differ from the first pass"
        return None

    def run_pass(self, tracer=None) -> dict:
        walls, rcs = [], []
        for call in self.calls:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t = time.perf_counter()
                try:
                    if tracer is None:
                        rc = self.cli.main(call["argv"])
                    else:
                        rc = tracer.span(f"cli.{call['cmd']}", self.cli.main, call["argv"])
                except Exception:  # a crash is a failed call, not a dead benchmark
                    rc = "exception " + traceback.format_exc().strip().splitlines()[-1]
                walls.append(time.perf_counter() - t)
            rcs.append(rc)
        for i, rc in enumerate(rcs):
            self.attempted += 1
            problem = self._verdict(i, rc)
            if problem:
                self.failed += 1
                self.problems.append(problem)
        by_cmd: dict[str, float] = {}
        for call, wall in zip(self.calls, walls):
            by_cmd[call["cmd"]] = by_cmd.get(call["cmd"], 0.0) + wall
        return {"wall_s": sum(walls), "by_cmd": by_cmd}


def reference_s() -> float:
    """Wall time of a fixed mix of the work breedkit does: dict-and-loop
    arithmetic, text-to-float parsing, and numpy arithmetic and comparisons
    on small and medium arrays.

    The host's speed drifts by tens of percent over minutes; dividing a
    pass's wall time by the reference timed around it cancels most of that.
    """
    import numpy as np

    t = time.perf_counter()
    table = {}
    for i in range(30000):
        table[i % 997] = table.get(i % 997, 0.0) + i * 0.5
    line = " ".join(repr(i * 0.001) for i in range(200))
    for _ in range(60):
        [float(tok) for tok in line.split()]
    a = np.arange(4096, dtype=np.float64)
    for _ in range(600):
        (a * 1.5 + 2.0).sum()
    b = np.linspace(0.0, 1.0, 16384)
    for _ in range(100):
        int((((b > 0.3) & (b < 0.7)) ^ (b * 2.0 < 1.0)).sum())
        (b - 0.5) * (b + 0.25) / (b + 1.0)
    return time.perf_counter() - t


def _reference() -> float:
    # the fastest of three drops interrupts but keeps the host's current speed
    return min(reference_s() for _ in range(3))


def _loop(runner: Runner, seconds: float, tracer=None) -> list[dict]:
    """Passes until ``seconds`` have gone, each with the reference timed around it."""
    passes = []
    deadline = time.perf_counter() + seconds
    before = _reference()
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.run_id = len(passes)
        record = runner.run_pass(tracer)
        after = _reference()
        record["ref_s"] = (before + after) / 2
        before = after
        passes.append(record)
    return passes


def _peak_rss_mb() -> float:
    """High-water resident set of this process image (Linux ``VmHWM``).

    ``getrusage`` would also count the parent's resident set at fork time,
    which survives ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    cli, setup_s = setup()
    if argv[:1] == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    plan_path, result_path = argv[0], argv[1]
    seconds = float(argv[argv.index("--seconds") + 1])
    traced = "--trace" in argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    runner = Runner(cli, plan)
    result = {"setup_s": setup_s, "numpy": sys.modules["numpy"].__version__}
    if not traced:
        result["passes"] = _loop(runner, seconds)
    else:
        from tracing import Tracer

        result["passes"] = _loop(runner, seconds / 2)
        tracer = Tracer()
        result["wrapped"] = tracer.install()
        result["traced_passes"] = _loop(runner, seconds / 2, tracer)
        result["stats"] = tracer.stats(len(result["traced_passes"]))
        result["counts"] = tracer.counts
        tracer.save(os.path.join(os.path.dirname(result_path), "spans.npz"))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        peak_rss_mb=_peak_rss_mb(),
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
