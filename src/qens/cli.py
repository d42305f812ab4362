"""Command-line entry point.

    qens COMMAND [--config FILE] [--out DIR] [--threads N]

Commands map one-to-one onto the experiment presets in `figures`, and a
command takes --threads only if its runner has a `threads` parameter
(fig6).  A seed is set in the config.  The output directory defaults to
the QENS_OUT environment variable, then to ./out.  Exit codes:

    0  success, all internal consistency checks passed
    2  usage or configuration error
    3  domain error (invalid parameter values, degenerate ensembles)
    4  resource cap exceeded (model enumeration, qubit count or memory)
    5  file error (unreadable config, unwritable output)
    6  a consistency check reported by the summary failed
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from . import figures
from .analytic import NoBoundaryError, QuadratureError
from .simulator import PostselectionImpossibleError, QubitCapError, StateError
from .weighting import EnumerationCapError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CAP = 4
EXIT_FILE = 5
EXIT_CHECK_FAILED = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qens",
        description="Quantum ensembles of simple classifiers: simulation, "
        "analytics, and the experiment suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in sorted(figures.RUNNERS.items()):
        doc = (runner.__doc__ or "").strip().splitlines()[0] if runner.__doc__ else ""
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument(
            "--out",
            type=Path,
            default=Path(os.environ.get("QENS_OUT") or "out"),
            help="output directory (default: $QENS_OUT, then ./out)",
        )
        if "threads" in inspect.signature(runner).parameters:
            cmd.add_argument("--threads", type=_at_least_one, default=1, help="worker threads")
    return parser


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return int(text)


def _load_overrides(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(path.read_bytes())
    except ValueError as exc:  # a JSONDecodeError, or bytes in no UTF encoding
        raise figures.ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise figures.ConfigError("config must be a JSON object")
    return data


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    command, config, out = (options.pop(key) for key in ("command", "config", "out"))
    try:
        summary = figures.run_command(command, _load_overrides(config), out, **options)
    except figures.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationCapError, QubitCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (
        NoBoundaryError,
        QuadratureError,
        PostselectionImpossibleError,
        StateError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    for name, passed in summary["checks"].items():
        print(f"[{'ok' if passed else 'FAIL'}] {name}")
    print(f"wrote {command}_summary.json to {out}")
    return EXIT_OK if summary["ok"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
