"""goldgen benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs seeded cases of one workload for about `--seconds` (always whole cycles
of case kinds), checks every output outside the timed region, and prints
the metrics by name with units.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` each case
runs once untraced and once with layer spans, and the metrics are the
per-layer ones.  A full record with provenance goes to
.bench_out/<workload>-seed<seed>-trace<t>.json.

Timings are in ref units: the duration of a fixed reference kernel, sampled
immediately before each case and every 20 ms during it.  The host's speed
drifts by tens of percent within seconds; dividing each case by the kernel
timed alongside it removes most of that drift.  See bench/README.md.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)  # before numpy loads its BLAS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # set-ups per run: this process plus four fresh interpreters
REF_LOOPS = 160  # one ref unit: the kernel at this many loops (~1.5 ms)
SAMPLE_LOOPS = 40  # the sampled kernel is a quarter of a ref unit
SAMPLE_INTERVAL = 0.02  # seconds between samples during a case (~2% of wall)
BEFORE_SAMPLES = 3
SETUP_KERNEL_LOOPS = 160
SETUP_KERNEL_NOMINAL_S = 150e-6  # its median duration on the calibration host

UNITS = {
    "items_per_kref": "items/kref",
    "case_p50_ref": "ref",
    "case_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve", "simulate", "generate", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    return ap.parse_args(argv)


# ------------------------------------------------------------ reference


def ref_kernel(loops: int) -> complex:
    """Fixed work with goldgen's instruction mix: tiny complex numpy ops and
    Python complex arithmetic.  It calls no goldgen code."""
    import numpy as np  # loaded by set-up; see import_kernel

    x = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j, 0.3 + 0.7j])
    acc = 0j
    for _ in range(loops):
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, np.inf)
        acc += complex(np.sum(1.0 / d))
        v = 1.0 + 0j
        for c in x.tolist():
            v = v * 0.5 + c
        acc += v
    return acc


def import_kernel(loops: int) -> complex:
    """Pure-Python work (complex arithmetic, a small dict) sampled during
    set-up, which starts before numpy is loaded."""
    acc = 0j
    table = {}
    for i in range(loops):
        z = complex(i, 1.0)
        for c in (0.5 + 0.1j, -0.3j, 0.7):
            acc = acc * 0.5 + z * c
        table[i & 15] = acc
    return acc


class Sampler:
    """Times a short kernel on demand and every SAMPLE_INTERVAL seconds.

    The host's speed drifts on every time scale from milliseconds to
    seconds, so a sample taken only before a 2 s case tells little about
    the speed during it.  The periodic samples come from a SIGALRM handler,
    which Python runs in the main thread between bytecodes: still one
    thread.  `clock()` excludes the time spent sampling, so case, span and
    set-up durations do not include it.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.durations = array("d")
        self.stolen = 0.0

    def sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self.kernel()
        self.durations.append(perf_counter() - t0)
        self.stolen += perf_counter() - t0

    def clock(self) -> float:
        return perf_counter() - self.stolen

    def mark(self) -> int:
        """Take BEFORE_SAMPLES samples now; returns the mark for `mean_since`."""
        mark = len(self.durations)
        for _ in range(BEFORE_SAMPLES):
            self.sample()
        return mark

    def mean_since(self, mark: int) -> float:
        taken = self.durations[mark:]
        return sum(taken) / len(taken)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------ provenance


def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        if (git / ref[5:]).exists():
            return (git / ref[5:]).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout: src_sha256 identifies the code


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy as np
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "goldgen").glob("*.*")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ------------------------------------------------------------ set-up


def set_up(args, workdir: Path):
    """Imports, input generation and a warm-up call: everything before the
    first timed case.  Returns the workloads module."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    first = workloads.make_case(args.workload, args.seed, 0)
    warm = workloads.warmup_case(first)
    workloads.prepare(warm, str(workdir))
    result = workloads.execute(warm)
    if isinstance(result, Exception) or (warm.argv and result[0] != 0):
        raise RuntimeError(f"{warm.kind} failed: {result!r}")
    ref_kernel(REF_LOOPS)
    return workloads


def set_up_timed(args, workdir: Path):
    """Run `set_up` and time it from script start: (workloads module, raw
    seconds, seconds at the nominal host speed).

    A pure-Python kernel is sampled throughout; scaling by its nominal over
    its measured duration removes most of the host's drift, which moved
    raw set-up medians by 20-30% between sets of runs minutes apart."""
    sampler = Sampler(lambda: import_kernel(SETUP_KERNEL_LOOPS))
    mark = sampler.mark()
    with sampler.running():
        workloads = set_up(args, workdir)
        raw = sampler.clock() - T_START
    return workloads, raw, raw * SETUP_KERNEL_NOMINAL_S / sampler.mean_since(mark)


def setup_sample_in_child(args) -> tuple[float, float]:
    """(raw, nominal-speed) set-up seconds of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    raw, nominal = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(nominal)


# ------------------------------------------------------------ running


def run_case(workloads, sampler, case, workdir, tracer=None) -> dict:
    workloads.prepare(case, str(workdir))
    mark = sampler.mark()
    with tracer.installed(case.index) if tracer else contextlib.nullcontext():
        t0 = sampler.clock()
        result = workloads.execute(case)
        seconds = sampler.clock() - t0
    ref = REF_LOOPS / SAMPLE_LOOPS * sampler.mean_since(mark)
    outcome = workloads.check(case, result)
    written = os.path.getsize(case.output) if case.output and os.path.exists(case.output) else 0
    for path in workdir.iterdir():
        path.unlink()
    return {
        "index": case.index,
        "kind": case.kind,
        "ref_s": ref,
        "seconds": seconds,
        "case_ref": seconds / ref,
        "items": outcome.items,
        "error": outcome.error,
        "wrong": outcome.wrong,
        "residual": outcome.residual,
        "bytes_written": written,
    }


def run_cases(args, workloads, sampler, workdir, tracer=None) -> list:
    """Whole cycles of cases until `--seconds` have passed."""
    cycle = workloads.cycle_length(args.workload)
    deadline = perf_counter() + args.seconds
    rows = []
    i = 0
    while True:
        case = workloads.make_case(args.workload, args.seed, i)
        if tracer is None:
            rows.append(run_case(workloads, sampler, case, workdir))
        else:
            # alternate which pass runs first so warm caches favour neither
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                pair[traced] = run_case(workloads, sampler, case, workdir,
                                        tracer if traced else None)
            row = pair[True]
            row["untraced_ref"] = pair[False]["case_ref"]
            row["traced_ref"] = row["case_ref"]
            rows.append(row)
        i += 1
        if i % cycle == 0 and perf_counter() >= deadline:
            return rows


# ------------------------------------------------------------ metrics


def quantile(values, q: float) -> float:
    """Harrell-Davis quantile estimate: a beta-weighted mean of all order
    statistics, steadier than one order statistic when cases are few."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(rows, setup_s: float, tail_q: float) -> dict:
    refs = [r["case_ref"] for r in rows]
    failed = sum(1 for r in rows if r["error"])
    return {
        "items_per_kref": 1000.0 * sum(r["items"] for r in rows) / sum(refs),
        "case_p50_ref": quantile(refs, 0.5),
        "case_tail_ref": quantile(refs, tail_q),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / len(rows),
    }


def context(rows, workloads, args) -> dict:
    refs = [r["case_ref"] for r in rows]
    tail_q = workloads.TAIL_QUANTILE[args.workload]
    errors = {}
    for r in rows:
        if r["error"]:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    return {
        "item": workloads.ITEM[args.workload],
        "cases": len(rows),
        "tail_percentile": 100 * tail_q,
        "tail_cases_beyond": sum(1 for v in refs if v > quantile(refs, tail_q)),
        "ref_kernel_us": 1e6 * statistics.median(r["ref_s"] for r in rows),
        "case_p50_s": statistics.median(r["seconds"] for r in rows),
        "timed_s": sum(r["seconds"] for r in rows),
        "fail_ratio": len([r for r in rows if r["error"]]) / len(rows),
        "errors": errors,
        "worst_residual": max(r["residual"] for r in rows),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "goldgen" / "__init__.py").is_file():
        print(f"bench: no goldgen source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads, raw_setup, own_setup = set_up_timed(args, workdir)
        if args.setup_only:
            print(f"{raw_setup!r} {own_setup!r}")
            return 0
        sampler = Sampler(lambda: ref_kernel(SAMPLE_LOOPS))
        if args.trace:
            import spans

            tracer = spans.Tracer(sampler.clock)
            with sampler.running():
                rows = run_cases(args, workloads, sampler, workdir, tracer)
            traces = tracer.per_case([r["index"] for r in rows])
            layer_rows = [dict(r, trace=traces[r["index"]], ref=r["ref_s"]) for r in rows]
            metrics = {k: {"value": float(v), "unit": u}
                       for k, (v, u) in spans.layer_metrics(layer_rows).items()}
            tracer.save(str(OUT / f"{args.workload}-seed{args.seed}-spans.npz"))
            extra = {"missing_wrappers": sorted(set(tracer.missing))}
        else:
            samples = [(raw_setup, own_setup)] + [setup_sample_in_child(args)
                                                  for _ in range(SETUP_SAMPLES - 1)]
            with sampler.running():
                rows = run_cases(args, workloads, sampler, workdir)
            tail_q = workloads.TAIL_QUANTILE[args.workload]
            values = end_to_end(rows, statistics.median(n for _, n in samples), tail_q)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            extra = {"setup_raw_s": [r for r, _ in samples],
                     "setup_nominal_s": [n for _, n in samples]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ctx = dict(context(rows, workloads, args), **extra)
    baseline = BENCH / "baseline.json"
    if baseline.exists():
        recorded = json.loads(baseline.read_text())["workloads"].get(args.workload, {})
        ctx["recorded_run_to_run_spread"] = recorded.get("spread")
    record = {"metrics": metrics, "context": ctx, "provenance": provenance(args),
              "cases": rows}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {ctx['cases']} cases, "
          f"item = {ctx['item']}, ref kernel {ctx['ref_kernel_us']:.0f} us")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  tail = p{ctx['tail_percentile']:g} with {ctx['tail_cases_beyond']} of "
          f"{ctx['cases']} cases beyond it; worst residual {ctx['worst_residual']:.2e}; "
          f"errors: {ctx['errors'] or 'none'}")
    failed = sum(1 for r in rows if r["error"])
    correct = not any(r["wrong"] for r in rows)
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
