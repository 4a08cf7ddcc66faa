"""accelrad benchmark: seeded workloads driven through ``accelrad.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload queries --seed 1 --seconds 20 --trace 0

The workload seed fixes a pool of requests (see ``workloads.py``).  One
client sends them in a closed loop, in-process, pass after pass over the
pool, until another pass would take the measured time past ``--seconds``.
After the first pass every output is checked against an independent
reference (``check.py``); later passes must reproduce it byte for byte.
Accuracy figures come from the workload's fixed probe, run once at the end.

Between requests the client times a fixed reference computation.  Latency
and throughput are reported in units of that reference time (``_ref``,
``_kref``), because a shared machine's speed can drift by more than the
bounds between runs; the wall-clock figures are in the report line and,
with ``--trace 1``, among the per-layer metrics (``wall.*``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces every
other pair of requests and prints the per-layer metrics from them
(``tracing.py``), the tracing overhead as traced minus untraced, and the
scaling rows, timed after the loop.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The line before it is a report: sample counts, the sha256 digest of one
pass of output bytes, the source digest, commit, versions and nproc.
"""

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 9          # fresh interpreters timed for setup_s
REQUEST_TIMEOUT_S = 60.0   # a request running longer counts as failed
RUN_LIMIT_S = 140.0        # no request starts later than this into the run


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handlers let it by."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def measure_setup():
    """Median wall time from a fresh interpreter to accelrad.cli imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import accelrad.cli"],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=30)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("importing accelrad.cli failed:\n"
                               + proc.stderr.decode(errors="replace"))
    return statistics.median(samples)


def call(cli, argv, deadline):
    """Run one request; returns (exit code or None on timeout, out, seconds).

    The request is stopped at ``REQUEST_TIMEOUT_S`` or at ``deadline``
    (a ``time.perf_counter`` value), whichever comes first.
    """
    timeout = min(REQUEST_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return None, "", 0.0
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except RequestTimeout:
            code = None
        except Exception:  # a crash in the program is a failed request
            code = "crash: " + traceback.format_exc(limit=-3)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), elapsed


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "accelrad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


_REFERENCE_BUFFER = np.empty(400)


def reference_seconds():
    """Wall time of a fixed computation, timed next to every request.

    On a shared 2-core machine the CPU speed was seen to swing by up to 1.7x
    within a minute; the swing reaches a request and the computation around
    it alike, so their ratio keeps still where seconds do not.  The
    computation mixes what the program does (a three-term recurrence that
    stores into a numpy array, float arithmetic and calls, float formatting
    and a small numpy reduction) and shares no code with it.
    """
    start = time.perf_counter()
    prev, cur = 0.0, 1e-30
    for k in range(1200, 0, -1):
        prev, cur = cur, (2.0 * k / 900.5) * cur - prev
        if k < 400:
            _REFERENCE_BUFFER[k] = cur
    total = 0.0
    for i in range(1000):
        total += math.sin(i * 1e-3) * (i % 7)
    total += len(",".join(repr(i * 0.1) for i in range(300)))
    total += float(np.sum(np.sqrt(np.arange(2000.0))))
    return time.perf_counter() - start


def _p50_p90(values):
    ordered = sorted(values)
    p90 = (statistics.quantiles(ordered, n=10)[8] if len(ordered) > 1
           else ordered[0])
    return statistics.median(ordered), p90


def timing_metrics(samples):
    """Latency and throughput from (seconds, reference seconds) samples.

    The ``_ref`` figures divide each request's time by the reference time
    around it (``reference_seconds``); ``throughput_kref`` counts requests
    per 1000 reference times of busy client.  The wall-clock figures come
    along unchanged.
    """
    if not samples:
        return {}
    seconds = [s for s, _ in samples]
    ratios = [s / r for s, r in samples]
    r50, r90 = _p50_p90(ratios)
    s50, s90 = _p50_p90(seconds)
    return {"latency_p50_ref": (r50, "ref"),
            "latency_p90_ref": (r90, "ref"),
            "throughput_kref": (1000.0 * len(ratios) / sum(ratios), "1/kref"),
            "wall.latency_p50_s": (s50, "s"),
            "wall.latency_p90_s": (s90, "s"),
            "wall.throughput_rps": (len(seconds) / sum(seconds), "1/s")}


class Tally:
    """Check results accumulated over a set of requests."""

    def __init__(self):
        self.max_rel_err = self.oracle_dev = 0.0
        self.spot_checks = self.spot_fallbacks = self.np_repr_fields = 0
        self.failed = 0
        self.problems = []

    def add(self, label, verdict):
        self.max_rel_err = max(self.max_rel_err, verdict.max_rel_err)
        self.oracle_dev = max(self.oracle_dev, verdict.oracle_dev)
        self.spot_checks += verdict.spot_checks
        self.spot_fallbacks += verdict.spot_fallbacks
        self.np_repr_fields += verdict.np_repr_fields
        if not verdict.ok:
            self.fail(label, verdict.problems)

    def fail(self, label, problems):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append({"request": label, "problems": problems})


def _argvs(requests, workdir, prefix):
    """argv lists with each request's config written to a file."""
    argvs = []
    for idx, req in enumerate(requests):
        path = None
        if req.config is not None:
            path = Path(workdir) / f"{prefix}-{idx}.cfg"
            path.write_text(req.config)
        argvs.append([str(path) if a == "{config}" else a for a in req.argv])
    return argvs


def run(args, workdir, deadline):
    from check import check
    from workloads import WORKLOADS, probe

    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from accelrad import cli
    import scipy

    pool = WORKLOADS[args.workload](args.seed)
    argvs = _argvs(pool, workdir, "pool")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        coverage = tracer.coverage_problems()
        bindings = tracer.binding_count
        tracer.uninstall()

    signal.signal(signal.SIGALRM, _on_alarm)
    call(cli, argvs[0], deadline)  # warm-up: lazy imports, first-call set-up
    # Set-up objects never become garbage; keep the collector off them.
    gc.collect()
    gc.freeze()

    tally = Tally()
    first = []        # (sha256, exit code, lines) per pool request, pass 1
    latencies = {False: [], True: []}
    bessel_calls = []     # (request index, bessel_j calls) when traced
    attempted = passes = 0
    measured = 0.0
    ref_before = reference_seconds()
    while True:
        outputs = []
        pass_s = 0.0
        for idx, req in enumerate(pool):
            # Trace every other pair of requests, switching each pass, so
            # both halves see each kind of request about equally.
            traced = tracer is not None and (idx // 2 + passes) % 2 == 0
            if traced:
                tracer.install()
                before = tracer.stats["specfun.bessel_j"].calls
            code, out, elapsed = call(cli, argvs[idx], deadline)
            if traced:
                tracer.uninstall()
                if "bessel-per-line" in req.tags and code == 0:
                    bessel_calls.append(
                        (idx, tracer.stats["specfun.bessel_j"].calls - before))
            ref_after = reference_seconds()
            attempted += 1
            pass_s += elapsed
            outputs.append((code, out, (elapsed, 0.5 * (ref_before + ref_after)),
                            traced))
            ref_before = ref_after
        # Checks run after the pass, so the requests of every pass run
        # back to back under the same conditions.
        for idx, (code, out, sample, traced) in enumerate(outputs):
            label = pool[idx].label
            failed_before = tally.failed
            digest = hashlib.sha256(out.encode()).hexdigest()
            if passes == 0:
                verdict = check(pool[idx], code, out)
                tally.add(label, verdict)
                first.append((digest, code, verdict.lines))
            elif (digest, code) != first[idx][:2]:
                tally.fail(label, ["output differs from pass 1"])
            if tally.failed == failed_before:
                latencies[traced].append(sample)
        del outputs
        passes += 1
        measured += pass_s
        if measured + pass_s > args.seconds \
                or time.perf_counter() > deadline:
            break
    for idx, calls in bessel_calls:
        if calls != first[idx][2]:
            tally.fail(pool[idx].label,
                       [f"bessel_j traced {calls} calls for {first[idx][2]} "
                        f"lines"])

    # Accuracy comes from the fixed probe, run once, untimed and untraced.
    probe_requests = probe(args.workload)
    probe_tally = Tally()
    probe_digest = hashlib.sha256()
    for req, argv in zip(probe_requests, _argvs(probe_requests, workdir,
                                                 "probe")):
        code, out, _ = call(cli, argv, deadline)
        probe_tally.add(req.label, check(req, code, out))
        probe_digest.update(out.encode())
    attempted += len(probe_requests)
    failed = tally.failed + probe_tally.failed

    untraced = timing_metrics(latencies[False])
    end_to_end = {
        **{k: v for k, v in untraced.items() if not k.startswith("wall.")},
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "max_rel_err": (probe_tally.max_rel_err, "1"),
        "oracle_max_rel_dev": (probe_tally.oracle_dev, "1"),
        "setup_s": (setup_s, "s"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured, "passes": passes,
        "pool": len(pool), "probe": len(probe_requests),
        "samples": {"untraced": len(latencies[False]),
                    "traced": len(latencies[True])},
        "output_sha256": hashlib.sha256(
            "".join(d for d, _, _ in first).encode()).hexdigest(),
        "probe_sha256": probe_digest.hexdigest(),
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "pool_max_rel_err": tally.max_rel_err,
        "pool_oracle_max_rel_dev": tally.oracle_dev,
        "spot_checks": tally.spot_checks + probe_tally.spot_checks,
        "spot_fallbacks": tally.spot_fallbacks + probe_tally.spot_fallbacks,
        "np_repr_fields": tally.np_repr_fields,
        "problems": (tally.problems + probe_tally.problems)[:10],
    }
    metrics = end_to_end
    correct = failed == 0
    if tracer is not None:
        from tracing import layer_metrics, scaling_rows
        traced = timing_metrics(latencies[True])
        overhead = {f"trace_overhead.{k}": (traced[k][0] - v, unit)
                    for k, (v, unit) in untraced.items() if k in traced}
        metrics = {**layer_metrics(tracer, len(latencies[True])),
                   **{k: v for k, v in untraced.items()
                      if k.startswith("wall.")},
                   "cli.sidebands_text.np_repr_fields": (
                       tally.np_repr_fields / len(pool), "count"),
                   **scaling_rows(tracer), **overhead,
                   "trace.bindings": (bindings, "count")}
        report["coverage_problems"] = coverage
        report["trace_overhead"] = {k: v for k, (v, _) in overhead.items()}
        correct = correct and not coverage
    report["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    report["wall"] = {k: v for k, (v, _) in untraced.items()
                      if k.startswith("wall.")}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("queries", "spectrum-deep", "figures",
                                 "integrity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "accelrad" / "cli.py").is_file():
        print(f"accelrad sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        return run(args, workdir, deadline)


if __name__ == "__main__":
    sys.exit(main())
