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

With --cells, each command's output is printed cell by cell instead of
hashed: after the command's line (workload, seed, index, exit code, argv)
comes one line per cell, named by its format, its row and its column (a
CSV table cell, or a leaf of the JSON document by its path), one per
'#' line of a CSV and one per line of stderr. A diff of two checkouts'
--cells outputs then names every cell that moved:

    python scripts/output_digest.py --seeds 1 --cells > cells.txt

The workload module is only imported (no bytecode is written next to it).
"""

import argparse
import contextlib
import hashlib
import io
import json
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


def leaves(node, path: str):
    """(path, value) for each leaf of a parsed JSON document, the value spelled as the document spells it."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(value, f"{path}.{key}")
    else:
        yield path, json.dumps(node)


def cells(out: str, err: str, fmt: str) -> list[str]:
    """One line per cell of a command's output: 'fmt row.column value' for a table, 'json path value' for the
    rest of a JSON document, 'csv # ...' for a metadata line and 'stderr line' for each line of stderr."""
    lines = []
    if fmt == "json" and out:
        lines += [f"json {path[1:]} {value}" for path, value in leaves(json.loads(out), "")]
    elif out:
        table = [line for line in out.splitlines() if not line.startswith("#")]
        lines += [f"csv {line}" for line in out.splitlines() if line.startswith("#")]
        header = table[0].split(",")
        for row, line in enumerate(table[1:]):
            lines += [f"csv {row}.{column} {value}" for column, value in zip(header, line.split(","))]
    return lines + [f"stderr {line}" for line in err.splitlines()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--cells", action="store_true", help="print each output cell instead of the hashes")
    opts = ap.parse_args()

    for seed in opts.seeds:
        for name, build in WORKLOADS.items():
            for i, argv in enumerate(build(seed)):
                for fmt, args in (("csv", argv), ("json", [*argv, "--format", "json"])):
                    code, out, err = run(args)
                    if not opts.cells:
                        print(f"{name} {seed} {i} {code} {sha256(out)} {sha256(err)} {' '.join(args)}")
                        continue
                    print(f"{name} {seed} {i} {code} {' '.join(args)}")
                    for cell in cells(out, err, fmt):
                        print(f"{name} {seed} {i} {cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
