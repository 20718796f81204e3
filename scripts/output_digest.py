#!/usr/bin/env python3
"""Fingerprint the CLI output of every benchmark command.

Builds the command lists of perfbench/workloads.py for each seed, runs each
command in-process through rumor_inspect.cli.main, and prints one line per
command: workload, seed, index, exit code, the sha256 of stdout and of
stderr, and the argv. A second line per command does the same for the
command with ``--format json`` appended, so the JSON document is
fingerprinted too, although no workload asks for it. The package and the workloads are imported from the
checkout that holds this file, so to compare two commits, run a copy of the
file in each checkout and diff the outputs:

    python scripts/output_digest.py --seeds 1 2 3 > digest.txt

The workload module is only imported (no bytecode is written next to it).
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True

from rumor_inspect.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()

    for seed in args.seeds:
        for name, build in WORKLOADS.items():
            for i, argv in enumerate(build(seed)):
                for args in (argv, [*argv, "--format", "json"]):
                    code, out, err = run(args)
                    print(f"{name} {seed} {i} {code} {sha256(out)} {sha256(err)} {' '.join(args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
