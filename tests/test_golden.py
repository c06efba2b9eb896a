"""Golden outputs: every row of ``golden_outputs.json`` gives its stdout and exit code.

The table pins output across commits and across the Pythons CI runs;
``python tests/golden.py`` rewrites it from the code as it stands.
"""

import hashlib
import json

from golden import TABLE, encoded, line_digests, lines_of, run, write_files


def first_difference(row: dict, data: bytes) -> str:
    """The first line of ``data`` whose digest is not the table's, or where the output ends early."""
    expected = [row["lines"][i : i + 4] for i in range(0, len(row["lines"]), 4)]
    lines = lines_of(data)
    got = [line_digests(line) for line in lines]
    for number, (want, have) in enumerate(zip(expected, got), 1):
        if want != have:
            return f"line {number} differs: {lines[number - 1][:300]!r}"
    if len(got) != len(expected):
        return f"{len(got)} lines where the table has {len(expected)}"
    return "every line matches; the bytes between them differ"


def test_every_golden_row_gives_its_stdout_and_exit_code(tmp_path):
    write_files(tmp_path)
    rows = json.loads(TABLE.read_text("utf-8"))
    assert len(rows) >= 90
    failures = []
    for row in rows:
        code, out = run(row["argv"], row["format"], tmp_path)
        data = encoded(out)
        if code != row["exit"]:
            failures.append(f"{row['format']} {row['argv']}: exit {code}, table {row['exit']}")
        elif (len(data), hashlib.sha256(data).hexdigest()) != (row["bytes"], row["sha256"]):
            failures.append(f"{row['format']} {row['argv']}: {first_difference(row, data)}")
    assert not failures, "\n".join(failures)
