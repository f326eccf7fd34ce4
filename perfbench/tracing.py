"""Spans around the calls the CLI makes into each qfringe layer.

Run as a script, this is the traced twin of ``python -m qfringe``:

    python perfbench/tracing.py SPANS_JSON CLI_ARG...

It imports qfringe under an ``import`` span, replaces the module attributes
listed in TRACE_POINTS with wrappers that record a span around each call,
runs ``qfringe.cli.main`` under a ``cli.main`` span and writes every span to
SPANS_JSON. Spans are kept in memory until the run ends. A trace point whose
attribute no longer exists is listed under ``missing`` instead of failing
the run, so its metric reads 0 and the untraced remainder grows.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager


class SpanRecorder:
    """Nested spans of one request: name, start, end, parent index and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "parent": parent, "start": self.clock(), "end": None, "attrs": {}}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record["attrs"]
        finally:
            self._open.pop()
            record["end"] = self.clock()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one parent run one after another inside it, so the covered
    part is the sum of their durations.
    """
    durations = [span["end"] - span["start"] for span in spans]
    own = list(durations)
    for span, duration in zip(spans, durations):
        if span["parent"] is not None:
            own[span["parent"]] -= duration
    return own


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _fringe_attrs(fn, args, kwargs, result):
    geom = _argument(fn, args, kwargs, "geom")
    state = _argument(fn, args, kwargs, "state")
    n_points = int(_argument(fn, args, kwargs, "n_points"))
    kind = "pure" if state is None else state.kind
    return {"legs": n_points * geom.slit_count, "state": kind}


def _qubit_attrs(fn, args, kwargs, result):
    return {"cutoff": int(_argument(fn, args, kwargs, "params").cutoff)}


def _serialize_attrs(fn, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, counts taken from the call). Each attribute
# is the name through which the CLI path reaches the layer, so the wrapper
# sees exactly the calls the CLI makes.
TRACE_POINTS = (
    ("qfringe.cli", "load_config", "config.load_config", None),
    ("qfringe.cli", "run", "runner.run", None),
    ("qfringe.runner", "build_source_state", "fock.source_state", None),
    ("qfringe.runner", "fringe_scan", "diffraction.fringe_scan", _fringe_attrs),
    ("qfringe.runner", "single_photon_fringe", "diffraction.single_photon_fringe", None),
    ("qfringe.oracle", "slit_mode_oracle", "oracle.slit_mode_oracle", None),
    ("qfringe.oracle", "run_verification_suite", "oracle.run_verification_suite", None),
    ("qfringe.runner", "transition_probability", "qubit.transition_probability", _qubit_attrs),
    ("qfringe.qubit", "integrate_quadratures", "qubit.integrate_quadratures", None),
    ("qfringe.runner", "csv_text", "tableio.serialize", _serialize_attrs),
    ("qfringe.runner", "json_document", "tableio.serialize", _serialize_attrs),
    ("qfringe.diffraction", "csv_text", "tableio.serialize", _serialize_attrs),
    ("qfringe.diffraction", "json_document", "tableio.serialize", _serialize_attrs),
    ("qfringe.oracle", "json_document", "tableio.serialize", _serialize_attrs),
    ("qfringe.runner", "_write_text", "runner.write", None),
)


def _traced(recorder: SpanRecorder, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            result = fn(*args, **kwargs)
            if counts is not None:
                attrs.update(counts(fn, args, kwargs, result))
        return result

    return wrapper


def install(recorder: SpanRecorder, points=TRACE_POINTS) -> list[str]:
    """Wrap every trace point; returns the ones that do not exist."""
    missing = []
    for module_name, attribute, span_name, counts in points:
        module = importlib.import_module(module_name)
        fn = getattr(module, attribute, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attribute}")
            continue
        setattr(module, attribute, _traced(recorder, span_name, fn, counts))
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    with recorder.span("import"):
        import qfringe.cli
    missing = install(recorder)
    with recorder.span("cli.main"):
        code = qfringe.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans, "missing": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
