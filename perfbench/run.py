"""qfringe benchmark: CLI time to solution, with a traced per-layer split.

    python3 perfbench/run.py --workload screen_scan --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout that holds ``src/qfringe``; nothing needs
installing. One client drives the real CLI (``python -m qfringe --config``)
in a closed loop: each run starts only after the previous one has ended and
its output has been written. The run repeats the workload's batch of CLI runs
at least MIN_BATCHES times and while another batch still fits in
``--seconds``, checks every output against
references from ``checks.py``, and prints the metrics as the last line of
standard output. With ``--trace 1`` each batch is followed by the same batch
run through ``tracing.py``, which records a span around each layer call, and
the per-layer metrics are printed instead. The line before the last holds the
report: seeds and config hashes, the environment, sample counts and checks.
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
import threading
import time
from dataclasses import dataclass

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, ".work")
PACKAGE_INIT = os.path.join(ROOT, "src", "qfringe", "__init__.py")

# Set-up probes run in three groups of this size: before the first batch,
# after it, and after the last, so their median spans the whole run.
SETUP_PROBES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120.0
# Every run makes at least MIN_BATCHES batches. The tail percentile is the
# highest of TAIL_LADDER (per-mille) that keeps MIN_BEYOND samples above it
# at that guaranteed count, so one workload always reports the same
# percentile, whatever the speed of the commit under test.
MIN_BATCHES = 2
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

QUBIT_CUTOFFS = workloads.QUBIT_CUTOFFS
FRINGE_STATES = ("pure", "mixed")
SPAN_METRICS = {
    "config.load_config": "config.load_s",
    "runner.run": "runner.run_s",
    "fock.source_state": "fock.source_state_s",
    "diffraction.single_photon_fringe": "diffraction.far_field_s",
    "oracle.slit_mode_oracle": "oracle.slit_mode_s",
    "oracle.run_verification_suite": "oracle.verify_suite_s",
    "qubit.integrate_quadratures": "qubit.integrate_s",
    "runner.write": "runner.write_s",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.qfringe_self_s": "s",
    "cli.process_overhead_s": "s",
    **{metric: "s" for metric in SPAN_METRICS.values()},
    **{
        f"diffraction.{state}.{name}": unit
        for state in FRINGE_STATES
        for name, unit in (("fringe_scan_s", "s"), ("legs", "count"), ("ns_per_leg", "ns"))
    },
    **{
        f"qubit.c{cutoff}.{name}": unit
        for cutoff in QUBIT_CUTOFFS
        for name, unit in (("flip_curve_s", "s"), ("calls", "count"), ("us_per_call", "us"))
    },
    "tableio.serialize_s": "s",
    "tableio.bytes": "count",
    "fringe_s": "s",
    "compare_s": "s",
    "qubit_s": "s",
    "verify_s": "s",
    "check.fringe_max_dev": "frac",
    "check.compare_max_dev": "frac",
    "check.qubit_max_dev": "frac",
    "trace.overhead_s": "s",
}

PROGRAM_PROBE = (
    "import json, numpy, scipy, qfringe; print(json.dumps({'file': qfringe.__file__, "
    "'version': qfringe.__version__, 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)


class BenchError(RuntimeError):
    """The program under test cannot be found or started."""


@dataclass
class Outcome:
    invocation: workloads.Invocation
    wall_s: float
    rss_mb: float
    check: checks.Check
    spans: dict | None = None


@dataclass
class Batch:
    wall_s: float
    outcomes: list


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def timed_child(cmd: list[str], cwd: str, log_path: str) -> tuple[float, float, int]:
    """Run one child to its end: wall seconds, peak RSS in MB, exit code."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def locate_program() -> dict:
    """Check that the checkout's own src/qfringe is what the children import."""
    if not os.path.isfile(PACKAGE_INIT):
        raise BenchError(f"no qfringe package under {os.path.join(ROOT, 'src')}")
    probe = subprocess.run(
        [sys.executable, "-c", PROGRAM_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise BenchError(f"import qfringe failed: {probe.stderr.strip()[-500:]}")
    info = json.loads(probe.stdout.splitlines()[-1])
    if os.path.realpath(info["file"]) != os.path.realpath(PACKAGE_INIT):
        raise BenchError(f"children import qfringe from {info['file']}, not this checkout")
    return info


def tail_per_mille(n: int) -> int:
    """Highest ladder percentile, in per-mille, with MIN_BEYOND of n samples above it.

    Falls back to the median (500) when n is too small for any tail.
    """
    for per_mille in TAIL_LADDER:
        if n - nearest_rank(n, per_mille) >= MIN_BEYOND:
            return per_mille
    return 500


def nearest_rank(n: int, per_mille: int) -> int:
    """1-based nearest rank of a percentile given in per-mille."""
    return max(1, -(-per_mille * n // 1000))


def cli_command(invocation, config_path: str, output_path: str, spans_path) -> list[str]:
    args = ["--config", config_path, "--output", output_path, *invocation.args]
    if spans_path is None:
        return [sys.executable, "-m", "qfringe", *args]
    return [sys.executable, os.path.join(HERE, "tracing.py"), spans_path, *args]


def run_batch(invocations, work: str, traced: bool) -> Batch:
    """Run every invocation once, back to back, then check the outputs."""
    suffix = ".traced" if traced else ""
    started = []
    start = time.perf_counter()
    for inv in invocations:
        stem = os.path.join(work, inv.name)
        spans_path = stem + suffix + ".spans.json" if traced else None
        cmd = cli_command(inv, stem + ".json", stem + suffix + ".out", spans_path)
        started.append((inv, spans_path, timed_child(cmd, work, stem + suffix + ".log")))
    wall = time.perf_counter() - start
    outcomes = []
    for inv, spans_path, (child_wall, rss_mb, code) in started:
        output = os.path.join(work, inv.name + suffix + ".out")
        check = checks.check_output(inv, output, code)
        spans = None
        if traced and code == 0:
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
        for path in (output, spans_path):
            if path and os.path.exists(path):
                os.remove(path)
        outcomes.append(Outcome(inv, child_wall, rss_mb, check, spans))
    return Batch(wall, outcomes)


def repeat_for(seconds: float, step, minimum: int) -> list:
    """Call step() minimum times, then again while one more call fits in seconds."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + elapsed / len(results) > seconds:
            return results


def setup_probes(work: str) -> list[float]:
    cmd = [sys.executable, "-c", "import qfringe"]
    log = os.path.join(work, "setup.log")
    probes = []
    for _ in range(SETUP_PROBES):
        wall, _, code = timed_child(cmd, work, log)
        if code != 0:
            raise BenchError("import qfringe failed during set-up")
        probes.append(wall)
    return probes


def parse_importtime(stderr: str) -> dict:
    """Import metrics from ``-X importtime`` output, in seconds.

    Lines come child-first; the indentation of the module name gives its
    depth. A package's cost is the cumulative time of its outermost entries.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name_field = fields[2][1:]
        depth = len(name_field) - len(name_field.lstrip())
        entries.append((depth, name_field.strip(), int(fields[0]), int(fields[1])))

    def outermost(prefix: str) -> float:
        total, stack = 0, []
        for depth, name, _, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = name == prefix or name.startswith(prefix + ".")
            if inside and not any(n == prefix or n.startswith(prefix + ".") for _, n in stack):
                total += cumulative
            stack.append((depth, name))
        return total / 1e6

    qfringe_self = sum(s for _, n, s, _ in entries if n == "qfringe" or n.startswith("qfringe."))
    return {
        "import.total_s": outermost("qfringe"),
        "import.numpy_s": outermost("numpy"),
        "import.scipy_s": outermost("scipy"),
        "import.qfringe_self_s": qfringe_self / 1e6,
    }


def import_probes(work: str) -> list[dict]:
    probes = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qfringe"],
            cwd=work, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if probe.returncode != 0:
            raise BenchError("import qfringe failed under -X importtime")
        probes.append(parse_importtime(probe.stderr))
    return probes


def layer_metrics(untraced: Batch, traced: Batch) -> tuple[dict, list]:
    """Per-layer metrics of one batch pair, and the split of each config."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    per_config = []
    for plain, spanned in zip(untraced.outcomes, traced.outcomes):
        metrics[plain.invocation.kind + "_s"] += plain.wall_s
        if spanned.spans is None:
            continue
        spans = spanned.spans["spans"]
        split = {}
        for span, own in zip(spans, tracing.self_times(spans)):
            name, attrs = span["name"], span["attrs"]
            split[name] = split.get(name, 0.0) + own
            if name == "diffraction.fringe_scan":
                prefix = f"diffraction.{attrs['state']}"
                metrics[prefix + ".fringe_scan_s"] += own
                metrics[prefix + ".legs"] += attrs["legs"]
            elif name == "qubit.transition_probability":
                prefix = f"qubit.c{attrs['cutoff']}"
                if prefix + ".calls" in metrics:
                    metrics[prefix + ".flip_curve_s"] += own
                    metrics[prefix + ".calls"] += 1
            elif name == "tableio.serialize":
                metrics["tableio.serialize_s"] += own
                metrics["tableio.bytes"] += attrs["bytes"]
            elif name in SPAN_METRICS:
                metrics[SPAN_METRICS[name]] += own
        in_process = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        metrics["cli.process_overhead_s"] += spanned.wall_s - in_process
        per_config.append(
            {
                "name": plain.invocation.name,
                "cli_wall_s": plain.wall_s,
                "traced_wall_s": spanned.wall_s,
                "self_s": split,
                "missing_trace_points": spanned.spans["missing"],
            }
        )
    for state in FRINGE_STATES:
        prefix = f"diffraction.{state}"
        legs, busy = metrics[prefix + ".legs"], metrics[prefix + ".fringe_scan_s"]
        metrics[prefix + ".ns_per_leg"] = 1e9 * busy / legs if legs else 0.0
    for cutoff in QUBIT_CUTOFFS:
        prefix = f"qubit.c{cutoff}"
        calls, busy = metrics[prefix + ".calls"], metrics[prefix + ".flip_curve_s"]
        metrics[prefix + ".us_per_call"] = 1e6 * busy / calls if calls else 0.0
    metrics["trace.overhead_s"] = sum(o.wall_s for o in traced.outcomes) - sum(
        o.wall_s for o in untraced.outcomes
    )
    return metrics, per_config


def timed_run(invocations, work: str, seconds: float):
    setup = setup_probes(work)

    def batch():
        result = run_batch(invocations, work, traced=False)
        if len(setup) == SETUP_PROBES:
            setup.extend(setup_probes(work))
        return result

    batches = repeat_for(seconds, batch, MIN_BATCHES)
    setup.extend(setup_probes(work))
    outcomes = [o for b in batches for o in b.outcomes]
    walls = sorted(o.wall_s for o in outcomes)
    per_mille = tail_per_mille(len(invocations) * MIN_BATCHES)
    rank = nearest_rank(len(walls), per_mille)
    metrics = {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "run_s_p50": statistics.median(walls),
        "run_s_tail": walls[rank - 1],
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "setup_s": len(setup),
        "wall_s": len(batches),
        "run_s_p50": len(walls),
        "run_s_tail": {
            "percentile": per_mille / 10,
            "samples": len(walls),
            "beyond": len(walls) - rank,
        },
        "peak_rss_mb": len(outcomes),
    }
    runs = [
        {"batch": i, "name": o.invocation.name, "wall_s": o.wall_s, "rss_mb": o.rss_mb}
        for i, b in enumerate(batches)
        for o in b.outcomes
    ]
    return metrics, outcomes, samples, {"setup_probes_s": setup, "runs": runs}


def traced_run(invocations, work: str, seconds: float):
    imports = import_probes(work)

    def pair():
        return run_batch(invocations, work, traced=False), run_batch(invocations, work, traced=True)

    pairs = repeat_for(seconds, pair, 1)
    per_pair = [layer_metrics(plain, spanned) for plain, spanned in pairs]
    metrics = {name: statistics.median(p[0][name] for p in per_pair) for name in PER_LAYER}
    metrics.update({name: statistics.median(p[name] for p in imports) for name in imports[0]})
    outcomes = [o for p in pairs for b in p for o in b.outcomes]
    for kind in ("fringe", "compare", "qubit"):
        devs = [o.check.max_dev for o in outcomes if o.invocation.kind == kind]
        metrics[f"check.{kind}_max_dev"] = max(devs) if devs else 0.0
    samples = {
        "import": len(imports),
        "batch_pairs": len(pairs),
        "per_layer": "median over batch pairs",
    }
    return metrics, outcomes, samples, {"per_config": per_pair[-1][1]}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment(program: dict) -> dict:
    digest = hashlib.sha256()
    package = os.path.dirname(PACKAGE_INIT)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            commit = None
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        base = os.path.join(cache_dir, index)
        level, kind, size = (
            _read(os.path.join(base, f)).strip()
            for f in ("level", "type", "size")
        )
        if level:
            caches[f"L{level} {kind}"] = size
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "qfringe_version": program["version"],
        "python": platform.python_version(),
        "numpy": program["numpy"],
        "scipy": program["scipy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = locate_program()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    invocations = workloads.generate(args.workload, args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        for inv in invocations:
            with open(os.path.join(work, inv.name + ".json"), "w", encoding="utf-8") as handle:
                handle.write(inv.text)
        measure = traced_run if args.trace else timed_run
        metrics, outcomes, samples, extra = measure(invocations, work, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    failures = [
        {"name": o.invocation.name, "message": o.check.message} for o in outcomes if not o.check.ok
    ]
    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client: each CLI run starts after the previous one ends",
        "configs": [
            {"name": inv.name, "kind": inv.kind, "args": list(inv.args), "sha256": inv.sha256}
            for inv in invocations
        ],
        "environment": environment(program),
        "samples": samples,
        "tolerances": {
            kind: {"value": tol, "reason": why} for kind, (tol, why) in checks.TOLERANCES.items()
        },
        "failed_frac": len(failures) / len(outcomes),
        "failures": failures,
        **extra,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
