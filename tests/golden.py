"""Golden outputs of ``gu``: the stdout and exit code of fixed invocations.

Each row of ``golden_outputs.json`` is one invocation in one format: its
argv, the format (``jsonl`` and ``csv`` through ``--format``, ``env-csv``
through ``GU_FORMAT=csv`` with no flag), the exit code, the byte count of
stdout and its sha256, and one short digest per stdout line, so that a
mismatch can name the first line that differs.  ``test_golden.py`` runs
every row in process through ``cli.main``.

Run ``python tests/golden.py`` to rewrite the table from the code as it
stands.  A rewritten row is a change of output: it needs a reason.

In an argv, ``{corpus}`` is the shipped machine corpus and ``{tmp}`` a
directory holding the files of ``FILES``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

TABLE = Path(__file__).with_name("golden_outputs.json")
FORMATS = ("jsonl", "csv", "env-csv")

_LOOPER = "states: a b\nalphabet: _ 1\nstart: a\na _ -> b _ R\nb _ -> a _ L\n"
_RULE = '{"properties": ["p"], "particles": [{"id": 1, "providers": {"p": "uniform:machine,file=%s"}}]}\n'

FILES = {
    # On y ones it walks right and bounces off the blank at y: its dovetail trials loop
    # past step 0, and as a universe rule it loops from t=1 on.
    "bounce.tm": "states: a b\nalphabet: _ 1\nstart: a\na 1 -> a 1 R\na _ -> b _ L\nb 1 -> a 1 R\n",
    # Every trial repeats its start at step 2, on a blank tape and on y ones alike.
    "pingpong.tm": _LOOPER + "a 1 -> b 1 R\nb 1 -> a 1 L\n",
    # No symbol 1: as a universe rule it cannot read t ones from t=1 on.
    "nox.tm": "states: a b\nalphabet: _ x\nstart: a\na _ -> b x R\n",
    # Loops on the blank tape of t=0.
    "loop.tm": _LOOPER,
    "bounce.json": _RULE % "bounce.tm",
    "nox.json": _RULE % "nox.tm",
    "loop.json": _RULE % "loop.tm",
}

# 40 values up to 45: the product tree of beta encode has an odd level.
_ENCODED = "3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6,2,6,4,3,3,8,3,2,7,9,5,0,2,8,8,4,1,9,45"

ARGVS = [
    ["run", "{corpus}/counter.tm", "--budget", "200", "--trace"],
    ["run", "{corpus}/grow_right.tm", "--budget", "60", "--trace"],
    ["run", "{corpus}/bb3.tm", "--trace"],
    ["run", "{corpus}/write3.tm", "--input", "cells:-2=1,3=1", "--trace"],
    ["run", "{corpus}/counter.tm", "--input", "unary:5", "--budget", "500"],
    ["run", "{corpus}/pingpong.tm"],
    ["run", "{corpus}/grow_right.tm", "--budget", "50"],
    ["beta", "encode", _ENCODED],
    ["beta", "eval", "7,1", "0"],
    ["beta", "matches", "7,3", "--bound", "3000"],
    ["beta", "predict", "2", "--bound", "600"],
    ["beta", "superpose", "0:1,2:3", "1:5,4:0"],
    ["dovetail", "{corpus}/counter.tm=zero-of", "{corpus}/grow_right.tm=zero-of",
     "{tmp}/bounce.tm=nonzero-of", "{tmp}/pingpong.tm=nonzero-of", "--global-budget", "2000"],
    ["dovetail", "{corpus}/bb2.tm=nonzero-of", "{corpus}/write3.tm=zero-of"],
    *[
        ["universe", "sim", "--config", config, "--steps", steps]
        for config in ("mixed", "uniform_pair", "horizon_only", "constant_world")
        for steps in ("0", "250")
    ],
    ["universe", "sim", "--config", "mixed"],
    ["universe", "sim", "--config", "{tmp}/bounce.json", "--steps", "3"],
    ["universe", "sim", "--config", "{tmp}/nox.json", "--steps", "3"],
    ["universe", "sim", "--config", "{tmp}/loop.json", "--steps", "2"],
    ["universe", "sim", "--config", "{tmp}/loop.json", "--steps", "0"],
    ["collapse", "demo", "--pred", "pi", "--k", "5", "--measure", "8", "--eval", "0..12"],
    ["collapse", "demo", "--pred", "const=1000", "--k", "2", "--eval", "0..3"],
    ["corpus", "verify"],
    ["dovetail", "{corpus}/counter.tm=one-of"],
]


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def corpus_dir() -> str:
    return str(resources.files("godelsim").joinpath("data/corpus"))


def run(argv: list[str], fmt: str, tmp: Path) -> tuple[int, str]:
    """Exit code and stdout of one row, run in process; stderr is dropped."""
    from godelsim import cli

    args = [arg.format(corpus=corpus_dir(), tmp=tmp) for arg in argv]
    if fmt != "env-csv":
        args = ["--format", fmt, *args]
    saved = os.environ.pop("GU_FORMAT", None)
    if fmt == "env-csv":
        os.environ["GU_FORMAT"] = "csv"
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
    finally:
        os.environ.pop("GU_FORMAT", None)
        if saved is not None:
            os.environ["GU_FORMAT"] = saved
    return code, out.getvalue()


def lines_of(data: bytes) -> list[bytes]:
    """The lines of ``data``, split at each newline alone."""
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return lines


def line_digests(data: bytes) -> str:
    """Four hex digits of the sha256 of each line, concatenated."""
    return "".join(hashlib.sha256(line).hexdigest()[:4] for line in lines_of(data))


def encoded(out: str) -> bytes:
    return out.encode("utf-8", "surrogatepass")


def row_of(argv: list[str], fmt: str, tmp: Path) -> dict:
    code, out = run(argv, fmt, tmp)
    data = encoded(out)
    return {
        "argv": argv,
        "format": fmt,
        "exit": code,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": line_digests(data),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_files(tmp)
        rows = [row_of(argv, fmt, tmp) for argv in ARGVS for fmt in FORMATS]
    with open(TABLE, "w", encoding="utf-8") as table:
        table.write("[\n")
        table.write(",\n".join(json.dumps(row) for row in rows))
        table.write("\n]\n")
    print(f"wrote {len(rows)} rows to {TABLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
