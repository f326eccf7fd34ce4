"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O failure, 4 non-finite or degenerate result (no file is written).
"""

from __future__ import annotations

import argparse
import gc
import sys

from .config import ConfigError, load_config
from .diffraction import DegenerateGeometryError
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfringe",
        description=(
            "Run slit-interference scans, qubit evolutions, pipeline "
            "comparisons and the verification suite from a JSON config."
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--output", help="override the output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="override the output format")
    parser.add_argument(
        "--far-field",
        action="store_true",
        help="use the far-field fringe law instead of the exact intensity",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config, output_path=args.output, output_format=args.format, far_field=args.far_field
        )
        code = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateGeometryError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {config.experiment} output: {config.output.path}")
    return code


def entry() -> None:
    # Every import is done by now. Frozen objects move to the permanent
    # generation, which no collection walks, so interpreter exit no longer
    # walks the import-time heap (numpy's and ours). Objects the run creates
    # are collected as usual; in-process callers of main() keep normal GC.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
