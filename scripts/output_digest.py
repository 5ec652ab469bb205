#!/usr/bin/env python3
"""One sha256 line per CLI command, to compare the output of two checkouts.

Runs the CLI examples of README.md and round 0 (the nominal inputs) of the
three perfbench workloads through ``powerparts.cli.main`` in this process.
An ``--output`` file is written to a temporary directory instead.  Each line
is the sha256 of the exit code, stdout, stderr and output file bytes of one
command, then its argv:

    python3 scripts/output_digest.py > after.txt
    python3 scripts/output_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

``--src`` picks the program's source directory (default: ``src/`` of this
checkout); the command lists always come from this checkout.  Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_examples() -> list:
    """argv of every line of README.md that starts with ``powerparts ``."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("powerparts ")]


def workload_commands() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return [list(cmd.argv) for name in workloads.WORKLOADS
            for cmd in workloads.commands(name, 0, 0)]


def digest(main, argv: list, tmp: Path) -> str:
    """sha256 of one command's exit code, stdout, stderr and output file."""
    target = tmp / "output"
    run = list(argv)
    if "--output" in run:
        run[run.index("--output") + 1] = str(target)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repr(main(run))
        except Exception as exc:  # an escaped exception is an outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    written = target.read_bytes() if target.exists() else b""
    target.unlink(missing_ok=True)
    h = hashlib.sha256()
    for part in (code.encode(), out.getvalue().encode(), err.getvalue().encode(), written):
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source directory the powerparts package is imported from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from powerparts import cli

    with tempfile.TemporaryDirectory() as tmp:
        for argv in readme_examples() + workload_commands():
            print(digest(cli.main, argv, Path(tmp)), shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
