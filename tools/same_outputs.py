"""Check that two source trees write the same CLI outputs for the benchmark workloads.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `qfringe` package, such as the
`src` of two checkouts. The invocations come from `perfbench/workloads.py`
(read, not changed): every workload at seeds 1 and 2.
Every invocation runs as `python -m qfringe --config ... --output ... [flags]`
once against each tree, the two side by side, each in a run directory of its
own, with one BLAS thread and no bytecode written. The exit code, standard
output and standard error (each with its run directory and source tree
replaced by a placeholder) and the output file's bytes must agree. Each
difference is printed on one line, and the exit code is 1 if there is any.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SIDES = ("old", "new")
SEEDS = (1, 2)


def load_workloads():
    """The benchmark's workload module, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")


def _start(invocation, src: str, run_dir: Path) -> subprocess.Popen:
    config = run_dir / f"{invocation.name}.json"
    config.write_text(invocation.text, encoding="utf-8")
    output = run_dir / f"{invocation.name}.out"
    cmd = [sys.executable, "-m", "qfringe", "--config", str(config), "--output", str(output), *invocation.args]
    return subprocess.Popen(cmd, cwd=run_dir, env=_env(src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _result(proc: subprocess.Popen, invocation, src: str, run_dir: Path) -> dict:
    stdout, stderr = proc.communicate()

    def normalized(text: bytes) -> bytes:
        return text.replace(os.fsencode(run_dir), b"<run>").replace(os.fsencode(src), b"<src>")

    output = run_dir / f"{invocation.name}.out"
    return {
        "exit code": proc.returncode,
        "stdout": normalized(stdout),
        "stderr": normalized(stderr),
        "output bytes": output.read_bytes() if output.exists() else None,
    }


def compare(srcs: dict, invocations, work: Path) -> list[str]:
    """One line per field that differs between the two trees, over all invocations."""
    differences = []
    for label, invocation in invocations:
        runs = {}
        for side in SIDES:
            run_dir = work / label.replace(" ", "_") / side
            run_dir.mkdir(parents=True, exist_ok=True)
            runs[side] = (run_dir, _start(invocation, srcs[side], run_dir))
        old, new = (_result(proc, invocation, srcs[side], run_dir) for side, (run_dir, proc) in runs.items())
        for field in old:
            if old[field] != new[field]:
                if field == "exit code":
                    detail = f": {old[field]} -> {new[field]}"
                else:
                    sizes = [None if v is None else len(v) for v in (old[field], new[field])]
                    detail = f" ({sizes[0]} -> {sizes[1]} bytes)"
                differences.append(f"{label} {invocation.name}: {field} differs{detail}")
    return differences


def main() -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="source tree holding the reference qfringe package")
    parser.add_argument("new_src", help="source tree holding the qfringe package under test")
    args = parser.parse_args()
    srcs = dict(zip(SIDES, (os.path.abspath(args.old_src), os.path.abspath(args.new_src))))
    for src in srcs.values():
        if not os.path.isfile(os.path.join(src, "qfringe", "__init__.py")):
            parser.error(f"no qfringe package under {src}")
    invocations = [
        (f"{name} seed {seed}", invocation)
        for name in workloads.WORKLOADS
        for seed in SEEDS
        for invocation in workloads.generate(name, seed)
    ]
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        differences = compare(srcs, invocations, Path(work))
    for line in differences:
        print(line)
    print(f"{len(invocations)} invocations, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
