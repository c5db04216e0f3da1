"""Every command and library example in README runs and says what README says."""

import csv
import io
import re
from pathlib import Path

import pytest

from primebias import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)
COMMANDS = [line for lang, body in BLOCKS if not lang
            for line in body.splitlines() if line.startswith("primebias ")]
# sieve bounds are divided by SCALE, so every command runs in about a second
SCALE = 10**4
SCALED = {"--x", "--checkpoints", "--nth-prime"}


def small(argv):
    """argv with its sieve bounds scaled down and a single worker."""
    out = []
    for tok in argv:
        if out and out[-1] in SCALED:
            tok = ",".join(str(cli._exact_int(v) // SCALE)
                           for v in tok.split(","))
        elif out and out[-1] == "--threads":
            tok = "1"
        out.append(tok)
    return out


def test_readme_lists_every_command():
    assert len(COMMANDS) >= 10
    assert {line.split()[1] for line in COMMANDS} == {
        "count", "predict", "constants", "s0", "compare", "dump-characters",
        "dump-lvalues"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys):
    code = cli.main(small(line.split()[1:]))
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(any(row.values()) for row in rows)


def test_readme_library_example():
    """Each `expression  # value` line of the Python example evaluates to
    its value: exactly, or to the digits shown after an approximate sign."""
    (code,) = [body for lang, body in BLOCKS
               if lang == "python" and "count_patterns(" in body]
    assert "count=1_000_000" in code
    namespace = {}
    checked = 0
    for line in code.splitlines():
        expr, _, note = line.partition("#")
        if not note.strip():
            exec(expr, namespace)
            continue
        got = eval(expr, namespace)
        want = note.strip().lstrip("≈").strip()
        if note.strip().startswith("≈"):
            digits = len(want.split("e")[0].replace(".", "").lstrip("0"))
            assert float("%.*g" % (digits, got)) == float(want), line
        else:
            assert got == int(want), line
        checked += 1
    assert "215873" in code and "283957" in code
    assert checked == 5
