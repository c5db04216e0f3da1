"""Command line plumbing: formats, outputs, config files, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import primebias
from primebias import cli, constants, sieve
from primebias.constants import InternalConsistencyError


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_count_csv_stdout(capsys):
    code, out = run_cli(["count", "--q", "3", "--x", "1000"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    got = {r["classes"]: int(r["count"]) for r in rows}
    assert got["1;2"] > got["1;1"]
    assert sum(got.values()) == 168 - 2  # pi(1000) - pi(3)


def test_count_nth_prime_mode(capsys):
    code, out = run_cli(["count", "--q", "3", "--nth-prime", "100",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert sum(r["count"] for r in rows) == 100
    assert rows[0]["mode"] == "by_count"


def test_count_checkpoints(capsys):
    code, out = run_cli(["count", "--q", "3", "--x", "10000",
                         "--checkpoints", "1e3,1e4", "--format", "json"],
                        capsys)
    assert code == 0
    rows = json.loads(out)
    assert sorted({r["limit"] for r in rows}) == [1000, 10000]
    at_1000 = sum(r["count"] for r in rows if r["limit"] == 1000)
    assert at_1000 == 168 - 2


def test_integer_flags_accept_scientific_notation(capsys):
    code, out = run_cli(["count", "--q", "3", "--x", "1e3",
                         "--checkpoints", "5e2", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    totals = {}
    for r in rows:
        totals[r["limit"]] = totals.get(r["limit"], 0) + r["count"]
    assert totals == {500: 95 - 2, 1000: 168 - 2}  # pi(x) - pi(3)
    code, out = run_cli(["count", "--q", "3", "--nth-prime", "1e2",
                         "--format", "json"], capsys)
    assert code == 0
    assert sum(r["count"] for r in json.loads(out)) == 100


@pytest.mark.parametrize("argv", [
    ["count", "--q", "3", "--x", "20000", "--checkpoints", "15000.5"],
    ["count", "--q", "3", "--x", "1000.5"],
    ["count", "--q", "3", "--nth-prime", "2.5"],
    ["compare", "--q", "3", "--x", "1e-3"],
    ["predict", "--q", "3", "--x", "1e9,1.5", "--method", "asymptotic"],
])
def test_integer_flags_refuse_fractions(argv, capsys):
    code, _ = run_cli(argv, capsys)
    assert code == 2


def test_count_requires_exactly_one_bound(capsys):
    code, _ = run_cli(["count", "--q", "3"], capsys)
    assert code == 2
    code, _ = run_cli(["count", "--q", "3", "--x", "100",
                       "--nth-prime", "5"], capsys)
    assert code == 2


def test_predict_integral_and_asymptotic(capsys):
    for method in ("integral", "asymptotic"):
        code, out = run_cli(["predict", "--q", "3", "--classes", "1,2",
                             "--x", "1e9", "--method", method,
                             "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)[0]
        assert row["method"] == method
        assert abs(float(row["value"]) / 1.405e7 - 1) < 0.02


def test_predict_defaults_to_all_patterns(capsys):
    code, out = run_cli(["predict", "--q", "3", "--x", "1e9",
                         "--method", "asymptotic", "--format", "json"],
                        capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["pattern"] for r in rows] == ["1;1", "1;2", "2;1", "2;2"]


def test_predict_multiple_x(capsys):
    code, out = run_cli(["predict", "--q", "4", "--classes", "1,1",
                         "--x", "1e9,1e12", "--method", "asymptotic",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["x"] for r in rows] == [10**9, 10**12]
    assert float(rows[1]["value"]) > float(rows[0]["value"])


def test_constants_all_patterns(capsys):
    code, out = run_cli(["constants", "--q", "4", "--truncation", "200000",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["pattern"] for r in rows] == ["1;1", "1;3", "3;1", "3;3"]
    assert float(rows[0]["c1"]) == -0.5
    # c1 averages to zero over the full table
    assert sum(float(r["c1"]) for r in rows) == pytest.approx(0.0)


def test_constants_forms_agree(capsys):
    code, out = run_cli(["constants", "--q", "4", "--classes", "1,1",
                         "--truncation", "200000", "--forms",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    methods = {r["c2_method"] for r in rows}
    assert {"character", "diagonal", "direct", "reduced"} <= methods
    vals = [float(r["c2"]) for r in rows]
    assert max(vals) - min(vals) < 1e-6


def test_s0_both_methods_with_difference(capsys):
    code, out = run_cli(["s0", "--q", "5", "--v", "0", "--H", "100",
                         "--truncation", "1000000", "--format", "json"],
                        capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert row["method"] == "both"
    assert float(row["difference"]) == pytest.approx(
        float(row["brute"]) - float(row["analytic"]))
    assert abs(float(row["difference"])) < 100 ** -0.4 * 2


def test_s0_moment_main_term(capsys):
    code, out = run_cli(["s0", "--q", "5", "--v", "0", "--H", "100",
                         "--k", "2", "--method", "analytic",
                         "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert float(row["analytic"]) == pytest.approx(-0.4 * 100**2)
    assert "brute" not in row


def test_compare_columns(capsys):
    code, out = run_cli(["compare", "--q", "3", "--x", "100000",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for r in rows:
        assert {"pattern", "actual", "integral_prediction",
                "asymptotic_prediction", "rel_err_integral",
                "rel_err_asymptotic"} <= set(r)
        assert abs(float(r["rel_err_integral"])) < 0.15
        assert r["actual"] == int(r["actual"])


def test_dump_characters(capsys):
    code, out = run_cli(["dump-characters", "--q", "12", "--format", "json"],
                        capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    conds = sorted(int(r["conductor"]) for r in rows)
    assert conds == [1, 3, 4, 12]


def test_dump_lvalues(capsys):
    code, out = run_cli(["dump-lvalues", "--q", "4", "--format", "json"],
                        capsys)
    assert code == 0
    rows = json.loads(out)
    # only non-principal characters carry a row; mod 4 has exactly one
    assert len(rows) == 1
    assert rows[0]["parity"] == -1
    assert abs(float(rows[0]["l1_re"]) - 0.7853981633974483) < 1e-12
    assert abs(float(rows[0]["a_re"])) < 1e-20  # Euler product vanishes here


def _dict_row_output(tables, fmt):
    """The count output built the plain way: one dict per row, every cell
    formatted by itself, csv.DictWriter or json.dumps(indent=2) over the
    whole list.  Returns (text, number of rows)."""
    rows = [{"q": t.q, "r": t.r, "skip": t.skip, "mode": t.mode,
             "limit": t.limit, "classes": ";".join(str(a) for a in c),
             "count": t.counts[c]}
            for t in tables for c in sorted(t.counts)]
    if fmt == "json":
        return json.dumps(rows, indent=2, default=str) + "\n", len(rows)
    out = io.StringIO()
    fields = []
    for row in rows:
        fields += [k for k in row if k not in fields]
    writer = csv.DictWriter(out, fieldnames=fields, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "%.15g" % v if isinstance(v, float) else str(v)
                         for k, v in row.items()})
    return out.getvalue(), len(rows)


@pytest.mark.parametrize("flags, config", [
    (["--q", "3", "--nth-prime", "1000"], dict(q=3, count=1000)),
    # every one of the 8**3 patterns, zeros included, at each checkpoint
    (["--q", "30", "--r", "3", "--x", "1e5", "--checkpoints", "1e3,1e4"],
     dict(q=30, r=3, x=10**5, xs=[1000, 10**4])),
    # sparse tables whose patterns differ by checkpoint; none start by 10
    (["--q", "7", "--r", "4", "--x", "5000", "--checkpoints", "10,300"],
     dict(q=7, r=4, x=5000, xs=[10, 300])),
    (["--q", "3", "--r", "4", "--x", "3"], dict(q=3, r=4, x=3)),  # no rows
    (["--q", "5", "--skip", "2", "--x", "1e4"], dict(q=5, skip=2, x=10**4)),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_output_matches_dict_rows(flags, config, fmt, tmp_path, capsys):
    config = dict(config)
    xs = config.pop("xs", None)
    cfg = sieve.SieveConfig(**config)
    tables = (sieve.count_patterns_series(cfg, xs) if xs
              else [sieve.count_patterns(cfg)])
    want, nrows = _dict_row_output(tables, fmt)
    argv = ["count"] + flags + ["--format", fmt]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert out == want
    target = tmp_path / "counts"
    code, out = run_cli(argv + ["--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_bytes() == want.encode()
    manifest = (tmp_path / "counts.manifest").read_text().splitlines()
    assert f"rows={nrows}" in manifest
    if fmt == "csv":
        assert nrows == max(0, want.count("\r\n") - 1)


def test_output_file_and_manifest(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out = run_cli(["count", "--q", "3", "--x", "1000",
                         "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.exists()
    manifest = (tmp_path / "counts.csv.manifest").read_text()
    assert "command=primebias count" in manifest
    assert "rows=4" in manifest
    assert "wall_seconds=" in manifest


def test_config_file_flags_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# defaults for the nightly run\nq = 3\nx = 1000\n"
                   "format = json\n")
    code, out = run_cli(["count", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(json.loads(out)) == 4
    # explicit flag beats the config value
    code, out = run_cli(["count", "--config", str(cfg), "--q", "5"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 16


def test_missing_config_file(capsys):
    code, _ = run_cli(["count", "--config", "/no/such/file.cfg"], capsys)
    assert code == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise InternalConsistencyError("induced")

    monkeypatch.setattr(cli, "build_ctable", boom)
    code, _ = run_cli(["dump-lvalues", "--q", "4"], capsys)
    assert code == 3


def _inconsistent_chunk(*args, **kwargs):
    # module level, so a spawned worker process can import it
    raise InternalConsistencyError("induced in a worker")


def test_worker_internal_error_exit_code(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sieve, "_count_chunk", _inconsistent_chunk)
    code, out = run_cli(["count", "--q", "3", "--x", "1e5", "--threads", "2"],
                        capsys)
    assert code == 3
    assert out == ""
    # every table is finished before output starts: no partial file
    target = tmp_path / "counts.csv"
    code, _ = run_cli(["count", "--q", "3", "--x", "1e5", "--threads", "2",
                       "--output", str(target)], capsys)
    assert code == 3
    assert list(tmp_path.iterdir()) == []


def test_pattern_budget_exit_code(capsys):
    code, _ = run_cli(["count", "--q", "100", "--r", "6", "--x", "1e6"], capsys)
    assert code == 2


def test_counting_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency: no command may load scipy
    script = (
        "import sys\n"
        "import primebias\n"
        "assert 'scipy' not in sys.modules, 'import primebias'\n"
        "from primebias import cli\n"
        "small = ['--truncation', '200000', '--output', sys.argv[1]]\n"
        "for args in (['count', '--q', '3', '--x', '1000', '--output', sys.argv[1]],\n"
        "             ['constants', '--q', '12'] + small,\n"
        "             ['dump-lvalues', '--q', '97'] + small,\n"
        "             ['predict', '--q', '12', '--x', '1e9'] + small,\n"
        "             ['s0', '--q', '5', '--v', '0,1', '--H', '1000',\n"
        "              '--method', 'both'] + small):\n"
        "    assert cli.main(args) == 0, args\n"
        "    assert 'scipy' not in sys.modules, args[0]\n"
    )
    src = os.path.dirname(os.path.dirname(primebias.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "t.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_form_mismatch_exit_code(monkeypatch, capsys):
    exact = constants._c2_character

    def skewed(q, a, b, truncation):
        return exact(q, a, b, truncation) + 1e-6

    monkeypatch.setattr(constants, "_c2_character", skewed)
    code, _ = run_cli(["constants", "--q", "5", "--classes", "1,2",
                       "--truncation", "200000"], capsys)
    assert code == 3


def test_bad_classes_exit_code(capsys):
    code, _ = run_cli(["predict", "--q", "3", "--classes", "1,3",
                       "--x", "1e9"], capsys)
    assert code == 2
    code, _ = run_cli(["constants", "--q", "3", "--classes", "1,3"], capsys)
    assert code == 2
