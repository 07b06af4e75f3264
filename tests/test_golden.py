"""CLI reports stay byte-identical: stdout and exit status against stored files.

Each command's stdout is stored as ``golden/<name>.out`` and its exit status
in ``golden/status.json``.  A changed file is a changed report, so regenerate
only for an intended output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import multiprocessing
from pathlib import Path

import pytest

from orbitconst.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify-json": ["verify", "--format", "json"],
    "verify-rank4-cap16-json": ["verify", "--format", "json", "--max-rank",
                                "4", "--term-cap", "16"],
    "verify-rank3": ["verify", "--max-rank", "3"],
    "table-json": ["table", "--format", "json"],
    "table-latex": ["table", "--format", "latex"],
    "table-sp5-csv": ["table", "--group", "sp", "--n", "5", "--format", "csv"],
    "real-forms-so-odd-2-2-json": ["real-forms", "--group", "so-odd", "--p",
                                   "2", "--q", "2", "--format", "json"],
    # one case per family besides so-odd: su with q > p, sp, so* with n odd
    # and with n even, and so-even with p >= 2 (its type-D simple root),
    # each as text and as json
    **{f"real-forms-{name}{suffix}": ["real-forms", "--group", *argv, *extra]
       for name, argv in (("su-2-3", ["su", "--p", "2", "--q", "3"]),
                          ("sp-3", ["sp", "--n", "3"]),
                          ("so-star-3", ["so-star", "--n", "3"]),
                          ("so-star-4", ["so-star", "--n", "4"]),
                          ("so-even-2-2", ["so-even", "--p", "2", "--q", "2"]))
       for suffix, extra in (("", []), ("-json", ["--format", "json"]))},
    "constant-so-even-2-3-json": ["constant", "--group", "so-even", "--p", "2",
                                  "--q", "3", "--format", "json"],
    "constant-so-odd-3-3-workers2-json": ["constant", "--group", "so-odd",
                                          "--p", "3", "--q", "3", "--workers",
                                          "2", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    code = main(COMMANDS[name])
    out = capsys.readouterr().out
    status = json.loads((GOLDEN / "status.json").read_text())
    assert code == status[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_pooled_verify_matches_golden(capsys):
    # the worker count is the only byte it may change
    code = main(["verify", "--workers", "2", "--format", "json"])
    out = capsys.readouterr().out
    golden = (GOLDEN / "verify-json.out").read_text()
    assert golden.count('"workers": 1') == 1
    assert code == 1
    assert out == golden.replace('"workers": 1', '"workers": 2')
    assert multiprocessing.active_children() == []


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for name, argv in sorted(COMMANDS.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status[name] = main(argv)
        (GOLDEN / f"{name}.out").write_bytes(buf.getvalue().encode())
    (GOLDEN / "status.json").write_text(
        json.dumps(status, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
