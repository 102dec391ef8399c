"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload broadcast --seed 1 --seconds 15 --trace 0

One workload runs in this single process. It sets up (three times, to report
the median set-up time), warms up once on seeds no timed operation uses, then
cycles through the workload's pass of operations for ``--seconds`` of wall
clock, checking every output outside the timed region. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. ``attempted`` counts every operation run and
checked, warm-up included; one that raises or fails a check is ``failed``.
The line before it is a report with the run manifest, the raw end-to-end
seconds, and every per-kind metric by name, unit, median, tail percentile
and sample count.

``setup_s`` and ``mix_s`` are reported at nominal host speed: the measured
seconds times ``NOMINAL_YARDSTICK_S`` over the run's median yardstick time
(:class:`Yardstick`, a fixed slice of work timed after every set-up and every
operation). On a shared 2-core VM the host's speed drifts by 20-40% over
minutes, and by up to 1.8x between runs; the yardstick drifts with it, so the
ratio removes most of that drift while a change to the program moves it in
full.

``--trace 1`` is a separate run: it alternates an untraced pass with a
traced pass over fresh inputs, wraps the layers' public functions from the
benchmark side (``spans.py``), reads the program's ``repro.obs`` counters,
replays every traced operation untraced to check that tracing changed no
ledger, and writes the spans to ``.perfbench/`` when it ends.

``--toy`` shrinks every host to a few dozen nodes (``smoke.py`` uses it).
The program is imported from ``src/`` of the checkout and nowhere else; with
no ``src/`` the run fails without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
PERCENTILES = (50, 75, 90, 95, 99)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM_VARS = ("REPRO_STEP", "REPRO_NO_SCIPY")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "mix_s": "s"}
# Median yardstick time on the reference host (2-core VM, Python 3.11.7,
# numpy 2.4.6); only scales the reported seconds, never the comparisons.
NOMINAL_YARDSTICK_S = 0.024


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _prepare_environment() -> dict:
    """Cap BLAS threads at nproc and run the default program.

    Must run before numpy is imported, which reads the thread caps once.
    """
    nproc = _nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    cleared = [var for var in PROGRAM_VARS if os.environ.pop(var, None) is not None]
    return {"nproc": nproc, "cleared": cleared}


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _percentile(samples: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"p": best, "value": cuts[best - 1]}


def _kind_report(kind, seconds: list[float], units: list[int]) -> dict:
    if kind.rate:
        values = [u / s for s, u in zip(seconds, units)]
    else:
        values = [s / u for s, u in zip(seconds, units)]
    return {
        "unit": kind.unit,
        "median": statistics.median(values),
        "tail": _percentile(values),
        "samples": len(values),
        "values": values,
    }


class Yardstick:
    """A fixed slice of numpy and interpreter work, about 24 ms.

    Buffers are preallocated and the collector is paused while it runs, so
    its time depends on the host's current speed and not on the state the
    program left behind.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.a = rng.random(1 << 18)
        self.idx = rng.integers(0, self.a.size, self.a.size)
        self.buf = [np.empty_like(self.a) for _ in range(3)]
        self.np = np
        self.samples: list[float] = []

    def measure(self) -> None:
        b, c, d = self.buf
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(2):
                b[:] = self.a
                b.sort()
                self.np.take(self.a, self.idx, out=c)
                self.np.cumsum(c, out=d)
            x = 0
            for i in range(120_000):
                x += i * i
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at nominal host speed."""
        return NOMINAL_YARDSTICK_S / statistics.median(self.samples)


class Runner:
    def __init__(self, workload, seed: int, seconds: float):
        import numpy as np

        self.np = np
        self.yardstick = Yardstick(np)
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: dict[str, list[int]] = {}

    def rng(self, stream: int, index: int):
        return self.np.random.default_rng([self.seed, stream, index])

    # -- one operation ------------------------------------------------------ #

    def execute(self, env, op, check_rng, run=None):
        """Run and check one operation; returns (seconds or None, result)."""
        self.attempted += 1
        run = run or (lambda: self.wl.run(env, op))
        gc.collect()  # start every operation from the same collector state
        try:
            t0 = time.perf_counter()
            result = run()
            dt = time.perf_counter() - t0
        except Exception as err:  # a failed operation is counted, not fatal
            self._fail(f"{op.kind}: raised {type(err).__name__}: {err}")
            return None, None
        try:
            problems = self.wl.check(env, op, result, check_rng)
        except Exception as err:
            problems = [f"check raised {type(err).__name__}: {err}"]
        for name, value in self.wl.rounds(op, result).items():
            self.rounds.setdefault(name, []).append(value)
        if problems:
            self._fail(f"{op.kind}: " + "; ".join(problems))
        self.yardstick.measure()
        return dt, result

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    # -- phases --------------------------------------------------------------- #

    def setup(self, recorder=None, setup_targets=()):
        """Build the workload ``SETUP_REPEATS`` times, then warm up once.

        The reported set-up time is the median build plus the warm-up (one
        operation of each kind, on seeds no timed operation uses).
        """
        times = []
        env = None
        for i in range(SETUP_REPEATS):
            env = None  # free the previous set-up before building the next
            traced = recorder is not None and i == SETUP_REPEATS - 1
            if traced:
                recorder.install(setup_targets)
            try:
                t0 = time.perf_counter()
                env = self.wl.build()
                times.append(time.perf_counter() - t0)
            finally:
                if traced:
                    recorder.uninstall()
            self.yardstick.measure()
        warmup = 0.0
        for i, kind in enumerate(k.name for k in self.wl.kinds):
            op = self.wl.make_op(env, kind, self.rng(1, i), timed=False)
            dt, _ = self.execute(env, op, self.rng(4, i))
            warmup += dt or 0.0
        return env, {"repeats_s": times, "warmup_s": warmup,
                     "setup_s": statistics.median(times) + warmup}

    def timed_pass_loop(self, env):
        """Cycle the pass until the window closes (at least one whole pass).

        Returns per-kind lists of call seconds and of the units each call
        served.
        """
        seq = self.wl.sequence
        samples = {k.name: [] for k in self.wl.kinds}
        units = {k.name: [] for k in self.wl.kinds}
        start = time.perf_counter()
        i = 0
        while i < len(seq) or time.perf_counter() - start < self.seconds:
            kind = seq[i % len(seq)]
            op = self.wl.make_op(env, kind, self.rng(2, i), timed=True)
            dt, _ = self.execute(env, op, self.rng(4, 1000 + i))
            if dt is not None:
                samples[kind].append(dt)
                units[kind].append(op.units)
            i += 1
        return samples, units

    def mix(self, samples) -> float:
        """Seconds per pass: per-kind medians weighted by the pass counts.

        A kind whose every operation failed has no samples and drops out;
        the run then reports failures, so the figure is never taken as valid.
        """
        return sum(
            self.wl.sequence.count(k) * statistics.median(v)
            for k, v in samples.items()
            if v
        )


def _trace_run(runner, env, recorder, obs, layers):
    """Alternate untraced and traced passes; fold spans into layer metrics."""
    from collections import defaultdict

    wl = runner.wl
    kinds = [k.name for k in wl.kinds]
    plain = {k: [] for k in kinds}
    traced = {k: [] for k in kinds}
    counters = defaultdict(float)
    observed = defaultdict(float)
    mismatches = 0
    passes = 0
    start = time.perf_counter()
    index = 0
    while True:
        for kind in wl.sequence:
            op = wl.make_op(env, kind, runner.rng(2, index), timed=True)
            dt, _ = runner.execute(env, op, runner.rng(4, 1000 + index))
            if dt is not None:
                plain[kind].append(dt)
            index += 1
        for kind in wl.sequence:
            op = wl.make_op(env, kind, runner.rng(3, index), timed=True)
            tracer = obs.Tracer()
            span_seconds = []

            def run_traced(op=op, tracer=tracer, op_id=index, out=span_seconds):
                recorder.install(layers.OP_TARGETS)
                try:
                    with obs.use_tracer(tracer):
                        result, seconds = recorder.operation(
                            op_id, f"op.{op.kind}", wl.run, env, op
                        )
                finally:
                    recorder.uninstall()
                out.append(seconds)
                return result

            dt, result = runner.execute(env, op, runner.rng(4, 1000 + index), run=run_traced)
            index += 1
            if dt is None:
                continue
            traced[kind].append(span_seconds[0])
            for name, value in tracer.counter_values().items():
                counters[name] += value
            for name, value in wl.observe(env, op, result).items():
                observed[name] += value
            try:
                replay = wl.run(env, op)
                same = wl.ledger(op, replay) == wl.ledger(op, result)
            except Exception as err:
                same = False
                print(f"perfbench: untraced replay raised {err!r}", file=sys.stderr)
            if not same:
                mismatches += 1
                runner._fail(f"{kind}: traced ledger differs from the untraced replay")
        passes += 1
        if time.perf_counter() - start >= runner.seconds:
            break
    plain_mix, traced_mix = runner.mix(plain), runner.mix(traced)
    overhead = traced_mix / plain_mix - 1 if plain_mix else 0.0
    metrics = layers.layer_metrics(
        recorder.spans, recorder.self_times(), counters, wl.backend, observed, passes, overhead
    )
    extra = {
        "passes": passes,
        "ledger_mismatches": mismatches,
        "untraced_mix_s": plain_mix,
        "traced_mix_s": traced_mix,
        "spans": len(recorder.spans),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size hosts (smoke test)")
    args = parser.parse_args(argv)

    env_info = _prepare_environment()
    _import_program()
    import numpy as np

    from repro import obs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, args.toy)
    runner = Runner(wl, args.seed, args.seconds)

    if args.trace:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        env, setup = runner.setup(recorder, layers.SETUP_TARGETS)
    else:
        env, setup = runner.setup()

    report: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "setup": setup}
    if args.trace:
        metrics, extra = _trace_run(runner, env, recorder, obs, layers)
        report["tracing"] = extra
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{wl.name}-seed{args.seed}-trace.jsonl"
        recorder.write(path)
        report["tracing"]["file"] = str(path.relative_to(ROOT))
        result_metrics = {
            name: {"value": value, "unit": layers.METRICS[name][0]}
            for name, value in metrics.items()
        }
    else:
        samples, units = runner.timed_pass_loop(env)
        report["kinds"] = {
            k.metric: _kind_report(k, samples[k.name], units[k.name])
            for k in wl.kinds
            if samples[k.name]
        }
        mix = runner.mix(samples)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = runner.yardstick.scale()
        values = {"setup_s": setup["setup_s"] * scale, "peak_rss_mb": peak, "mix_s": mix * scale}
        report["raw"] = {"setup_s": setup["setup_s"], "mix_s": mix}
        result_metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    report["rounds"] = {name: statistics.median(v) for name, v in runner.rounds.items()}
    report["yardstick"] = {
        "median_s": statistics.median(runner.yardstick.samples),
        "samples": len(runner.yardstick.samples),
        "nominal_s": NOMINAL_YARDSTICK_S,
    }
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    report["manifest"] = {
        **wl.manifest(env),
        "workload": wl.name,
        "seed": args.seed,
        "backend": wl.backend,
        "toy": args.toy,
        "scipy": scipy_version,
        "env": {var: os.environ.get(var) for var in PROGRAM_VARS + THREAD_VARS},
        "env_cleared": env_info["cleared"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "nproc": env_info["nproc"],
    }
    report["problems"] = runner.problems
    print(json.dumps(report, sort_keys=True, default=str))
    ok = runner.failed == 0
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
