"""Command line plumbing: formats, outputs, config files, exit codes."""

import argparse
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import primebias
from primebias import characters, cli, constants, lfun, sieve
from primebias.arith import (MAX_CHARACTER_ENTRIES, MAX_GROUP_MODULUS,
                             MAX_PATTERNS, Modulus, ResiduePattern, totient)
from primebias.characters import character_group
from primebias.constants import (
    InternalConsistencyError,
    c1,
    c2_general,
    c2_pair_forms,
    s0_main,
)
from primebias.lfun import build_ctable
from primebias.oracles import value_matrix
from primebias.predict import (
    asymptotic_prediction,
    integral_prediction,
    skip_prediction,
)
from primebias.singular import SingularContext, s0_brute


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
    ["constants", "--q", "12", "--truncation", "200000.5"],
    ["dump-lvalues", "--q", "7", "--truncation", "2.5"],
])
def test_integer_flags_refuse_fractions(argv, capsys):
    code, _ = run_cli(argv, capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["constants", "--q", "12"],
    ["dump-lvalues", "--q", "7"],
    ["predict", "--q", "5", "--x", "1e9", "--method", "asymptotic"],
    ["s0", "--q", "5", "--v", "0,1", "--H", "1e3", "--method", "analytic"],
])
def test_truncation_accepts_scientific_notation(argv, capsys):
    code, plain = run_cli(argv + ["--truncation", "200000"], capsys)
    assert code == 0
    code, sci = run_cli(argv + ["--truncation", "2e5"], capsys)
    assert code == 0
    assert sci == plain


def test_count_requires_exactly_one_bound(capsys):
    code, _ = run_cli(["count", "--q", "3"], capsys)
    assert code == 2
    code, _ = run_cli(["count", "--q", "3", "--x", "100",
                       "--nth-prime", "5"], capsys)
    assert code == 2


def test_bad_checkpoints_exit_code(capsys):
    # checkpoints need a by_x run, and follow the rule x >= 2
    for argv in (["count", "--q", "3", "--nth-prime", "1000",
                  "--checkpoints", "100,500"],
                 ["count", "--q", "3", "--x", "1000", "--checkpoints", "-5"]):
        code, out = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""


def test_checkpoint_above_x_is_named(capsys):
    code = cli.main(["count", "--q", "3", "--x", "1e6",
                     "--checkpoints", "2e6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "checkpoint 2000000 exceeds x = 1000000" in captured.err


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


def _fresh_prime_passes(monkeypatch):
    """No cached table, and a list of the (m, P) of every pass over the
    primes from here on."""
    passes = []
    inner = lfun._residue_power_sums

    def record(m, truncation):
        passes.append((m, truncation))
        return inner(m, truncation)

    monkeypatch.setattr(lfun, "_residue_power_sums", record)
    for cached in (lfun._prime_sums, lfun._ctable, constants._kernel,
                   constants.s0c_vector, constants._c2_table):
        cached.cache_clear()
    return passes


P_PASS = 1_000_003
S0_PASS = ["s0", "--q", "12", "--v", "0,1,5", "--H", "1e3"]


@pytest.mark.parametrize("argv, passes", [
    (S0_PASS + ["--method", "both"], [(12, P_PASS)]),
    (S0_PASS + ["--method", "analytic"], [(12, P_PASS)]),
    (S0_PASS + ["--method", "brute"], [(12, P_PASS)]),
    (["constants", "--q", "60"], [(60, P_PASS)]),
    (["constants", "--q", "12", "--classes", "5,7", "--forms"],
     [(12, P_PASS)]),
    (["predict", "--q", "12", "--x", "1e9"], [(12, P_PASS)]),
    (["predict", "--q", "12", "--x", "1e9", "--method", "asymptotic"],
     [(12, P_PASS)]),
    (["predict", "--q", "12", "--x", "1e9", "--method", "skip"], []),
    (["compare", "--q", "12", "--x", "1e5"], [(12, P_PASS)]),
    (["dump-lvalues", "--q", "97"], [(97, P_PASS)]),
], ids=["s0-both", "s0-analytic", "s0-brute", "constants", "constants-forms",
        "predict-integral", "predict-asymptotic", "predict-skip", "compare",
        "dump-lvalues"])
def test_one_prime_pass_per_truncated_command(argv, passes, monkeypatch,
                                              capsys):
    # every table of a truncated run, the twin-prime product included,
    # reads its prime sums from the one pass mod q
    recorded = _fresh_prime_passes(monkeypatch)
    code, out = run_cli(argv + ["--truncation", str(P_PASS)], capsys)
    assert code == 0 and out
    assert recorded == passes


@pytest.mark.parametrize("truncation", [None, "1e6"])
@pytest.mark.parametrize("q", [5, 12, 210])
def test_s0_brute_sums_independent_of_method(q, truncation, monkeypatch,
                                             capsys):
    # the twin-prime product reads the same table of prime sums mod q
    # with the analytic terms and alone: the same printed digits
    argv = ["s0", "--q", str(q), "--v", "0,1,5", "--H", "1e3"]
    if truncation:
        argv += ["--truncation", truncation]
    brute = []
    for method in ("brute", "both"):
        _fresh_prime_passes(monkeypatch)
        code, out = run_cli(argv + ["--method", method], capsys)
        assert code == 0
        brute.append([row["brute"] for row in csv.DictReader(io.StringIO(out))])
    assert brute[0] == brute[1]


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


@pytest.mark.parametrize("q", [5, 30])
def test_integral_pair_same_bits_alone_and_in_table(q, capsys):
    """integral_prediction (a one-column row), predict --classes a,b and
    the full predict table give each pair the same bits."""
    units = Modulus(q).classes
    want = {}
    for a, b in itertools.product(units, repeat=2):
        want[f"{a};{b}"] = integral_prediction(q, a, b, 1e9).value
    code, out = run_cli(["predict", "--q", str(q), "--x", "1e9",
                         "--format", "json"], capsys)
    assert code == 0
    assert {r["pattern"]: r["value"] for r in json.loads(out)} == want
    for a, b in ((units[0], units[-1]), (units[-1], units[-1]),
                 (units[1], units[0])):
        code, out = run_cli(["predict", "--q", str(q), "--classes",
                             f"{a},{b}", "--x", "1e9", "--format", "json"],
                            capsys)
        assert code == 0
        assert json.loads(out)[0]["value"] == want[f"{a};{b}"]


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


def _key(classes):
    return ";".join(str(a) for a in classes)


def _count_rows(tables):
    return [{"q": t.q, "r": t.r, "skip": t.skip, "mode": t.mode,
             "limit": t.limit, "classes": _key(c), "count": t.counts[c]}
            for t in tables for c in sorted(t.counts)]


def _patterns(q, r=2, classes=None):
    if classes is not None:
        return [ResiduePattern(q, classes).classes]
    return list(itertools.product(Modulus(q).classes, repeat=r))


def _constants_rows(q, r=2, classes=None, truncation=None, forms=False):
    rows = []
    for pat in _patterns(q, r, classes):
        row = {"pattern": _key(pat), "c1": c1(q, pat),
               "c2": c2_general(q, pat, truncation), "c2_method": "reduced"}
        rows.append(row)
        if forms and len(pat) == 2:
            found = c2_pair_forms(q, *pat, truncation=truncation)
            rows += [dict(row, c2=val, c2_method=tag)
                     for tag, val in sorted(found.items())]
    return rows


def _predict_rows(q, xs, method, r=2, classes=None, truncation=None,
                  skip=2):
    rows = []
    for pat in _patterns(q, r, classes):
        for x in xs:
            if method == "integral":
                got = integral_prediction(q, *pat, x, truncation=truncation)
            elif method == "skip":
                got = skip_prediction(q, *pat, skip, x)
            else:
                got = asymptotic_prediction(q, pat, x, truncation=truncation)
            rows.append({"pattern": _key(got.classes), "x": x,
                         "value": got.value, "method": got.method,
                         "error_estimate": got.quadrature_error})
    return rows


def _s0_rows(q, vs, H, method, k=0, truncation=None):
    ctx = SingularContext(q, truncation=truncation)
    rows = []
    for v in vs:
        row = {"q": q, "v": v, "H": H, "k": k, "method": method}
        if method in ("brute", "both"):
            got = s0_brute(ctx, v, H, k=k)
            row["brute"], row["cutoff"] = got.value, got.cutoff
        if method in ("analytic", "both"):
            row["analytic"] = s0_main(q, v, H, truncation, k=k)
        if method == "both":
            row["difference"] = row["brute"] - row["analytic"]
        rows.append(row)
    return rows


def _compare_rows(q, r, x, truncation=None):
    table = sieve.count_patterns(sieve.SieveConfig(q=q, r=r, x=x))
    rows = []
    for pat, actual in sorted(table.counts.items()):
        asym = asymptotic_prediction(q, pat, x, truncation=truncation).value
        row = {"pattern": _key(pat), "actual": actual,
               "integral_prediction": "", "asymptotic_prediction": asym,
               "rel_err_integral": "",
               "rel_err_asymptotic": asym / actual - 1 if actual else ""}
        if r == 2:
            integ = integral_prediction(q, *pat, x,
                                        truncation=truncation).value
            row["integral_prediction"] = integ
            if actual:
                row["rel_err_integral"] = integ / actual - 1
        rows.append(row)
    return rows


def _character_rows(q):
    group = character_group(q)
    every = slice(None)
    return [{"name": name, "modulus": q, "conductor": f, "order": k,
             "parity": p,
             "values": ";".join("%.15g%+.15gj" % (z.real, z.imag)
                                for z in values)}
            for name, f, k, p, values in zip(
                group.names(every), group.conductor.tolist(),
                group.character_orders(every).tolist(),
                group.parity.tolist(), value_matrix(group))]


def _lvalue_rows(q, truncation=None):
    return [{"name": r.name, "conductor": r.conductor, "parity": r.parity,
             "l0_re": r.l0.real, "l0_im": r.l0.imag,
             "l1_re": r.l1.real, "l1_im": r.l1.imag,
             "a_re": r.a.real, "a_im": r.a.imag,
             "c_re": r.c.real, "c_im": r.c.imag, "tail": r.tail}
            for r in build_ctable(q, truncation=truncation).rows]


def _dict_row_output(rows, fmt):
    """A command's output built the plain way: one dict per row, every
    cell formatted by itself, csv.DictWriter or json.dumps(indent=2) over
    the whole list.  Returns (text, number of rows)."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n", len(rows)
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
    (["--q", "5", "--r", "3", "--skip", "2", "--x", "1e4"],
     dict(q=5, r=3, skip=2, x=10**4)),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_output_matches_dict_rows(flags, config, fmt, tmp_path, capsys,
                                        monkeypatch):
    config = dict(config)
    xs = config.pop("xs", None)
    cfg = sieve.SieveConfig(**config)
    tables = (sieve.count_patterns_series(cfg, xs) if xs
              else [sieve.count_patterns(cfg)])
    rows = _count_rows(tables)
    _forbid_decode(monkeypatch)
    _check_output(["count"] + flags, rows, fmt, tmp_path, capsys)


def _forbid_decode(monkeypatch):
    """Make CountTable.counts raise: the commands write their rows from
    the tables' listings, never from a dict of every row."""
    def decode(*args):
        raise AssertionError("a command decoded a count table")
    monkeypatch.setattr(sieve.CountTable, "counts", property(decode))


@pytest.mark.parametrize("block_rows", [7, cli.BLOCK_ROWS])
@pytest.mark.parametrize("flags, config", [
    # every table lists every code: keys built for the first table's blocks
    (["--q", "5", "--r", "3", "--x", "1e4", "--checkpoints", "100"],
     dict(q=5, r=3, x=10**4, xs=[100])),
    # the counted codes only, a different set at each checkpoint
    (["--q", "7", "--r", "4", "--x", "2e4", "--checkpoints", "5000"],
     dict(q=7, r=4, x=2 * 10**4, xs=[5000])),
    (["--q", "7", "--r", "6", "--x", "2e4"], dict(q=7, r=6, x=2 * 10**4)),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_writes_the_same_bytes_in_blocks(block_rows, flags, config,
                                               fmt, tmp_path, capsys,
                                               monkeypatch):
    config = dict(config)
    xs = config.pop("xs", None)
    cfg = sieve.SieveConfig(**config)
    tables = (sieve.count_patterns_series(cfg, xs) if xs
              else [sieve.count_patterns(cfg)])
    rows = _count_rows(tables)
    assert len(rows) > 7 * len(tables)  # several blocks per table
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    _forbid_decode(monkeypatch)
    _check_output(["count"] + flags, rows, fmt, tmp_path, capsys)


@pytest.mark.parametrize("block_rows", [7, cli.BLOCK_ROWS])
@pytest.mark.parametrize("argv", [
    ["constants", "--q", "12"],
    ["constants", "--q", "12", "--r", "3"],
    ["constants", "--q", "12", "--classes", "5,7,11"],
    ["constants", "--q", "12", "--forms"],
    ["constants", "--q", "13", "--forms"],
    ["predict", "--q", "12", "--x", "1e9,1e10"],
    ["predict", "--q", "12", "--method", "asymptotic", "--x", "1e9,1e10"],
    ["predict", "--q", "12", "--method", "skip", "--x", "1e9,1e10"],
    ["predict", "--q", "12", "--classes", "5,7", "--x", "1e9,1e10"],
    ["predict", "--q", "12", "--r", "3", "--method", "asymptotic",
     "--x", "1e9,1e10"],
    ["compare", "--q", "5", "--x", "1e4"],
    ["compare", "--q", "5", "--r", "3", "--x", "1e4"],
    ["compare", "--q", "5", "--r", "4", "--x", "1e4"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pattern_tables_write_the_same_bytes_in_blocks(block_rows, argv, fmt,
                                                      capsys, monkeypatch):
    argv = argv + ["--format", fmt]
    monkeypatch.setattr(cli, "BLOCK_ROWS", MAX_PATTERNS)
    code, whole = run_cli(argv, capsys)
    assert code == 0
    sizes = []
    pattern_blocks = cli._pattern_blocks

    def recorded(*args):
        for block in pattern_blocks(*args):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(cli, "_pattern_blocks", recorded)
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    _forbid_decode(monkeypatch)
    assert run_cli(argv, capsys) == (0, whole)
    n = sum(sizes)
    assert sizes == [min(block_rows, n - i) for i in range(0, n, block_rows)]
    assert len(sizes) > 1 or n == 1 or block_rows > 7


@pytest.mark.parametrize("argv, code", [
    (["predict", "--q", "3", "--x", "2", "--method", "asymptotic"], 2),
    (["compare", "--q", "3", "--x", "10"], 2),  # below y_min
    (["constants", "--q", "12"], 3),
])
def test_streamed_commands_fail_before_any_output(argv, code, monkeypatch,
                                                  capsys, tmp_path):
    if argv[0] == "constants":
        def refuse(*args):
            raise InternalConsistencyError("induced")

        monkeypatch.setattr(constants, "_check_forms", refuse)
        constants._c2_table.cache_clear()
    assert run_cli(argv, capsys) == (code, "")
    target = tmp_path / "table.csv"
    assert run_cli(argv + ["--output", str(target)], capsys) == (code, "")
    assert list(tmp_path.iterdir()) == []


# JSON cells that must stay numbers of one kind, never strings
_JSON_FLOATS = ("c1", "c2", "value")
_JSON_INTS = ("x", "count")


def _check_output(argv, rows, fmt, tmp_path, capsys):
    """The command writes rows as _dict_row_output does, to stdout and to
    --output, and its manifest counts them."""
    want, nrows = _dict_row_output(rows, fmt)
    argv = argv + ["--format", fmt]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert out == want
    target = tmp_path / "table"
    code, out = run_cli(argv + ["--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_bytes() == want.encode()
    manifest = (tmp_path / "table.manifest").read_text().splitlines()
    assert f"rows={nrows}" in manifest
    if fmt == "csv":
        assert nrows == max(0, want.count("\r\n") - 1)
    else:
        for row in json.loads(want):
            for field in _JSON_FLOATS:
                assert type(row.get(field, 0.0)) is float, (field, row)
            for field in _JSON_INTS:
                assert type(row.get(field, 0)) is int, (field, row)


P = 200_000
_TABLES = [
    pytest.param(["constants", "--q", str(q)], lambda q=q: _constants_rows(q),
                 id=f"constants-q{q}")
    for q in (4, 12, 60)
] + [
    pytest.param(["constants", "--q", "30", "--r", "3"],
                 lambda: _constants_rows(30, r=3), id="constants-q30-r3"),
    pytest.param(["constants", "--q", "5", "--r", "4"],
                 lambda: _constants_rows(5, r=4), id="constants-q5-r4"),
    pytest.param(["constants", "--q", "12", "--classes=-7,19,1"],
                 lambda: _constants_rows(12, classes=(-7, 19, 1)),
                 id="constants-classes"),
] + [
    pytest.param(["constants", "--q", str(q), "--classes", pair, "--forms"],
                 lambda q=q, pair=pair: _constants_rows(
                     q, classes=tuple(map(int, pair.split(","))), forms=True),
                 id=f"constants-forms-q{q}-{pair}")
    for q, pair in ((5, "1,1"), (5, "1,2"), (12, "5,5"), (12, "5,7"))
] + [
    pytest.param(["constants", "--q", "12", "--truncation", "2e5"],
                 lambda: _constants_rows(12, truncation=P),
                 id="constants-truncation"),
    pytest.param(["predict", "--q", "12", "--method", "asymptotic",
                  "--x", "1e9,1e12,1e15"],
                 lambda: _predict_rows(12, (10**9, 10**12, 10**15),
                                       "asymptotic"),
                 id="predict-asymptotic-r2"),
    pytest.param(["predict", "--q", "12", "--r", "3", "--method",
                  "asymptotic", "--x", "1e9,1e12,1e15"],
                 lambda: _predict_rows(12, (10**9, 10**12, 10**15),
                                       "asymptotic", r=3),
                 id="predict-asymptotic-r3"),
    pytest.param(["predict", "--q", "5", "--classes", "1,2", "--x", "1e9",
                  "--truncation", "2e5"],
                 lambda: _predict_rows(5, (10**9,), "integral",
                                       classes=(1, 2), truncation=P),
                 id="predict-integral"),
    pytest.param(["predict", "--q", "5", "--classes", "1,4", "--method",
                  "skip", "--skip", "3", "--x", "1e9,1e12"],
                 lambda: _predict_rows(5, (10**9, 10**12), "skip",
                                       classes=(1, 4), skip=3),
                 id="predict-skip"),
    pytest.param(["predict", "--q", "5", "--x", "1e6,1e9"],
                 lambda: _predict_rows(5, (10**6, 10**9), "integral"),
                 id="predict-integral-table"),
    pytest.param(["predict", "--q", "5", "--method", "skip", "--x",
                  "1e9,1e12"],
                 lambda: _predict_rows(5, (10**9, 10**12), "skip"),
                 id="predict-skip-table"),
] + [
    pytest.param(["s0", "--q", "5", "--v", "0,1,3", "--H", "100", "--k", k,
                  "--method", method, "--truncation", "2e5"],
                 lambda k=k, method=method: _s0_rows(
                     5, (0, 1, 3), 100.0, method, k=int(k), truncation=P),
                 id=f"s0-{method}-k{k}")
    for method, k in (("brute", "0"), ("analytic", "0"), ("both", "0"),
                      ("analytic", "2"))
] + [
    # at x = 500 some triples mod 5 are never seen: mixed float, "" cells;
    # r = 4 lists only the quadruples counted
    pytest.param(["compare", "--q", q, "--r", r, "--x", x,
                  "--truncation", "2e5"],
                 lambda q=q, r=r, x=x: _compare_rows(int(q), int(r), int(x),
                                                     truncation=P),
                 id=f"compare-q{q}-r{r}")
    for q, r, x in (("3", "2", "10000"), ("5", "3", "500"), ("5", "4", "2000"))
] + [
    pytest.param(["dump-characters", "--q", "12"],
                 lambda: _character_rows(12), id="dump-characters"),
    pytest.param(["dump-lvalues", "--q", "12"], lambda: _lvalue_rows(12),
                 id="dump-lvalues"),
]


@pytest.mark.parametrize("argv, rows", _TABLES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_matches_dict_rows(argv, rows, fmt, tmp_path, capsys,
                                  monkeypatch):
    rows = rows()
    _forbid_decode(monkeypatch)
    _check_output(argv, rows, fmt, tmp_path, capsys)


@pytest.mark.parametrize("argv, rows", [
    (["dump-characters", "--q", "97"], lambda: _character_rows(97)),
    (["dump-lvalues", "--q", "97"], lambda: _lvalue_rows(97)),
], ids=["dump-characters", "dump-lvalues"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dumps_write_row_blocks_named_from_labels(argv, rows, fmt, tmp_path,
                                                  capsys, monkeypatch):
    rows = rows()
    # blocks of 7 rows, the last one short; no character object made
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    monkeypatch.setattr(characters, "GATHER_ENTRIES", 7 * 97)

    def refuse(*args):
        raise AssertionError("a dump made a character to name a row")
    monkeypatch.setattr(characters.DirichletCharacter, "__post_init__", refuse)
    monkeypatch.setattr(characters.CharacterGroup, "characters", refuse)
    _check_output(argv, rows, fmt, tmp_path, capsys)


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


@pytest.mark.parametrize("target,message", [
    ("missing/counts.csv", "No such file or directory"),
    (".", "Is a directory"),
    ("taken.csv", "Is a directory"),  # FILE.manifest is
    ("plain/counts.csv", "Not a directory"),
])
def test_unwritable_output_refused_before_counting(target, message,
                                                   monkeypatch, capsys,
                                                   tmp_path):
    def no_count(*args, **kwargs):
        raise AssertionError("counted before checking --output")

    monkeypatch.setattr(sieve, "count_patterns", no_count)
    (tmp_path / "taken.csv.manifest").mkdir()
    (tmp_path / "plain").write_text("")
    before = sorted(tmp_path.rglob("*"))
    code = cli.main(["count", "--q", "3", "--x", "1e6",
                     "--output", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_write_error_exit_code(monkeypatch, capsys, tmp_path):
    def full(blocks, fh):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_csv", full)
    code = cli.main(["count", "--q", "3", "--x", "100",
                     "--output", str(tmp_path / "counts.csv")])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        "error: [Errno 28] No space left on device\n")
    # the partial file this run created is gone
    assert not list(tmp_path.iterdir())


def test_write_error_keeps_files_the_run_did_not_create(monkeypatch, tmp_path):
    def full(blocks, fh):
        fh.write("q,")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_csv", full)
    kept = tmp_path / "counts.csv.manifest"
    kept.write_text("earlier\n")
    code = cli.main(["count", "--q", "3", "--x", "100",
                     "--output", str(tmp_path / "counts.csv")])
    assert code == 2
    assert [p.name for p in tmp_path.iterdir()] == [kept.name]
    assert kept.read_text() == "earlier\n"


def test_closed_stdout_ends_the_run_quietly():
    # the reader goes after one line of a table far larger than a pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "primebias", "count", "--q", "210", "--r", "3",
         "--x", "1e6"], env=_package_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("q,r,skip,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert "Traceback" not in err and "Exception" not in err, err


def test_shared_options_keep_their_places():
    # each subcommand lists its options in this order under --help, and
    # an option shared by several is declared alike in all of them
    common = ["--q", "--format", "--output", "--config"]
    want = {
        "count": ["--r", "--skip", "--x", "--nth-prime", "--threads",
                  "--checkpoints", *common],
        "predict": ["--x", "--r", "--method", "--classes", "--skip",
                    "--truncation", "--rel-tol", *common],
        "constants": ["--r", "--classes", "--truncation", "--forms", *common],
        "s0": ["--v", "--H", "--k", "--method", "--truncation", *common],
        "compare": ["--r", "--x", "--nth-prime", "--threads", "--truncation",
                    "--rel-tol", *common],
        "dump-characters": common,
        "dump-lvalues": ["--truncation", *common],
    }
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    declared = {}
    for name, sp in subparsers.choices.items():
        options = [a for a in sp._actions if a.option_strings != ["-h", "--help"]]
        assert [a.option_strings[0] for a in options] == want[name], name
        for a in options:
            declared.setdefault(a.option_strings[0], set()).add(
                (a.type, a.default, a.help, a.required))
    for option in ("--truncation", "--threads", "--rel-tol"):
        assert len(declared[option]) == 1, option


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


def test_config_key_without_value_is_a_bare_flag(tmp_path, capsys):
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("q = 12\nclasses = 5,7\nforms\n")
    want = run_cli(["constants", "--q", "12", "--classes", "5,7", "--forms"],
                   capsys)
    assert want[0] == 0 and ",character\r\n" in want[1]
    assert run_cli(["constants", "--config", str(cfg)], capsys) == want


def test_missing_config_file(capsys):
    code, _ = run_cli(["count", "--config", "/no/such/file.cfg"], capsys)
    assert code == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise InternalConsistencyError("induced")

    # the command imports build_ctable when it runs, so it finds the patch
    monkeypatch.setattr(lfun, "build_ctable", boom)
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
    # r < 2, or phi(q)**r > 2**24 patterns: refused before any pattern is
    # enumerated
    short = [[cmd, "--q", "420", "--r", r] + tail
             for r in ("1", "0", "-1")
             for cmd, tail in (("constants", []), ("count", ["--x", "1e6"]),
                               ("predict", ["--method", "asymptotic",
                                            "--x", "1e9"]))]
    for argv in [["count", "--q", "100", "--r", "6", "--x", "1e6"],
                 ["constants", "--q", "420", "--r", "4"],
                 ["predict", "--q", "420", "--r", "4",
                  "--method", "asymptotic", "--x", "1e9"]] + short:
        start = time.perf_counter()
        code, out = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert time.perf_counter() - start < 5, argv


def test_character_table_budget_exit_code(monkeypatch, capsys):
    # the real budgets admit the largest tables constants can ask for
    assert totient(19110) ** 2 <= MAX_PATTERNS
    assert totient(19110) * 19110 <= MAX_CHARACTER_ENTRIES
    assert 19110 <= MAX_GROUP_MODULUS
    # every refusal exits 2 at once with nothing written: a group above the
    # modulus bound, and a character table of more than phi(m) * m entries
    runs = [["dump-lvalues", "--q", str(MAX_GROUP_MODULUS + 1)],
            ["s0", "--q", str(MAX_GROUP_MODULUS + 1), "--v", "1", "--H", "1e3",
             "--method", "analytic"],
            ["dump-characters", "--q", "99991"]]
    # small budgets, and a modulus no other test builds, so no cached
    # group hides the check: 1012 * 1013 entries exceed the table budget,
    # 996 * 997 not, and 1013 is above the modulus bound, 997 not
    monkeypatch.setattr(characters, "MAX_CHARACTER_ENTRIES", 10**6)
    characters.check_table_budget(997)
    with pytest.raises(ValueError, match="above the budget of 1000000"):
        characters.check_table_budget(1013)
    monkeypatch.setattr(characters, "MAX_GROUP_MODULUS", 1000)
    assert characters.CharacterGroup(997).phi == 996
    with pytest.raises(ValueError, match="above the bound of 1000"):
        characters.CharacterGroup(1013)
    runs += [[cmd, "--q", "1013"] for cmd in ("dump-characters", "dump-lvalues")]
    for argv in runs:
        start = time.perf_counter()
        code, out = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert time.perf_counter() - start < 5, argv


def test_predict_refuses_x_not_above_e(capsys):
    # loglog x is defined and positive only above e: skip and asymptotic
    # predictions refuse x <= e alike, naming the bound, with nothing written
    for method in ("skip", "asymptotic"):
        for x in ("0", "1", "2"):
            argv = ["predict", "--q", "3", "--x", x, "--method", method]
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == "", argv
            assert "x must exceed e = 2.718282" in captured.err, argv


def test_runaway_quadrature_and_s0_exit_code(capsys):
    # a tolerance no panel can meet would bisect every branch to max_depth,
    # and H = 1e9 would ask pair_values for 5e10 floats: refused at once
    runs = [[cmd, "--q", "3", "--x", x, "--rel-tol", tol] + tail
            for tol in ("0", "-1", "nan", "1e-20")
            for cmd, x, tail in (("predict", "1e9", ["--method", "integral"]),
                                 ("compare", "1e5", []))]
    s0 = ["s0", "--q", "5", "--v", "0", "--H"]
    runs += [s0 + [H] for H in ("inf", "nan", "1e9")]
    runs += [s0 + [H, "--method", "analytic"] for H in ("inf", "nan")]
    for argv in runs:
        start = time.perf_counter()
        code, out = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert time.perf_counter() - start < 5, argv


@pytest.mark.parametrize("tail", [
    ["--v", "0", "--H", "-5", "--k", "2"],
    ["--v", "0", "--H", "nan", "--k", "1"],
    ["--v", "0", "--H", "0", "--k", "1"],
    ["--v", "1", "--H", "inf", "--k", "1"],
])
def test_s0_moment_refuses_runaway_H(tail, capsys):
    # H is checked for every k, off the zero class too
    argv = ["s0", "--q", "3", "--method", "analytic"] + tail
    code, out = run_cli(argv, capsys)
    assert code == 2 and out == "", argv


def test_s0_brute_output_independent_of_blas_threads():
    """The brute class sums print the same digits under one BLAS thread and
    two: a dot product split across threads would round differently.  On
    a host with one CPU both runs take one thread and this holds trivially."""
    argv = [sys.executable, "-m", "primebias", "s0", "--q", "5", "--v",
            "0,1,2,3,4", "--H", "1e4", "--method", "brute"]
    outs = []
    for threads in ("1", "2"):
        env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run(argv, env=env, capture_output=True,
                                   check=True, text=True,
                                   timeout=120).stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 6


@pytest.mark.parametrize("method", ["analytic", "brute", "both"])
@pytest.mark.parametrize("v", ["0", "1"])
def test_negative_moment_exit_code(method, v, capsys):
    # S_0^k has no negative moments, on the zero class or off it
    argv = ["s0", "--q", "5", "--v", v, "--H", "100", "--k", "-1",
            "--method", method]
    assert run_cli(argv, capsys) == (2, "")


@pytest.mark.parametrize("tail", [["--classes", "1,2,3"], ["--r", "3"]])
def test_forms_beyond_pairs_exit_code(tail, capsys):
    # the closed forms are of pair constants: refused, not dropped
    argv = ["constants", "--q", "5", "--forms"] + tail
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--forms lists the closed forms of pairs" in captured.err


def test_rel_tol_refused_before_sieving(monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved before checking --rel-tol")

    monkeypatch.setattr(sieve, "_tables", no_sieve)
    for tol in ("0", "1", "1e-16", "x"):
        with pytest.raises(SystemExit) as exc:  # argparse refuses it
            cli.main(["compare", "--q", "10", "--x", "1e8", "--rel-tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", tol
        assert "argument --rel-tol" in captured.err, captured.err
        if tol == "0":
            assert "rel_tol must lie in [1e-15, 1), got 0.0" in captured.err


def _no_count(*args, **kwargs):
    raise AssertionError("sieved before checking --truncation")


@pytest.mark.parametrize("truncation,message", [
    ("50", "truncation too small for the tail estimate"),
    ("1e12", "exceeds the configured budget"),
])
@pytest.mark.parametrize("argv", [
    ["constants", "--q", "12"],
    ["predict", "--q", "12", "--x", "1e9"],
    ["s0", "--q", "5", "--v", "1", "--H", "100", "--method", "analytic"],
    ["compare", "--q", "3", "--x", "3e8"],
    ["dump-lvalues", "--q", "97"],
])
def test_truncation_refused_while_parsing(argv, truncation, message,
                                          monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sieve, "count_patterns", _no_count)
    target = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:  # argparse refuses it
        cli.main(argv + ["--truncation", truncation, "--output", str(target)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --truncation" in captured.err, captured.err
    assert message in captured.err, captured.err
    assert not target.exists()


def test_modulus_past_the_truncation_refused_before_sieving(monkeypatch,
                                                            capsys):
    # compare builds its constants before it counts; the bound that fails
    # is named, with or without a truncation
    monkeypatch.setattr(sieve, "count_patterns", _no_count)
    runs = [(["compare", "--q", "101", "--x", "3e8", "--truncation", "100"],
             "need q <= truncation = 100, got q=101"),
            (["dump-lvalues", "--q", "0"], "need q >= 1, got q=0")]
    for argv, message in runs:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured.err


def test_counting_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency: no command may load scipy
    script = (
        "import sys\n"
        "import primebias\n"
        "assert 'scipy' not in sys.modules, 'import primebias'\n"
        "from primebias import cli\n"
        "out = ['--output', sys.argv[1]]\n"
        "small = ['--truncation', '200000'] + out\n"
        "for tail in (small, out):\n"
        "  for args in (['count', '--q', '3', '--x', '1000'] + out,\n"
        "               ['constants', '--q', '12'] + tail,\n"
        "               ['dump-lvalues', '--q', '97'] + tail,\n"
        "               ['predict', '--q', '12', '--x', '1e9'] + tail,\n"
        "               ['s0', '--q', '5', '--v', '0,1', '--H', '1000',\n"
        "                '--method', 'both'] + tail):\n"
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
    exact = constants._character_form

    def skewed(q, f, truncation):
        form = exact(q, f, truncation)
        return form._replace(g=form.g + 1e-6)

    monkeypatch.setattr(constants, "_character_form", skewed)
    constants._c2_table.cache_clear()
    try:
        code, _ = run_cli(["constants", "--q", "5", "--classes", "1,2",
                           "--truncation", "200000"], capsys)
    finally:
        constants._c2_table.cache_clear()
    assert code == 3


def test_bad_classes_exit_code(capsys):
    code, _ = run_cli(["predict", "--q", "3", "--classes", "1,3",
                       "--x", "1e9"], capsys)
    assert code == 2
    code, _ = run_cli(["constants", "--q", "3", "--classes", "1,3"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["constants", "--q", "12", "--classes", "1,5", "--r", "3"],
    ["predict", "--q", "3", "--classes", "1,2", "--r", "3",
     "--method", "asymptotic", "--x", "1e9"],
])
def test_r_disagreeing_with_classes_exit_code(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--r 3 disagrees with the 2 classes" in captured.err


@pytest.mark.parametrize("command, tail", [
    ("constants", []),
    ("predict", ["--method", "asymptotic", "--x", "1e9"]),
])
def test_classes_alone_set_r(command, tail, capsys):
    # three classes mean r = 3, with or without an agreeing --r
    argv = [command, "--q", "3", "--classes", "1,2,1"] + tail
    code, out = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["pattern"] for row in rows] == ["1;2;1"]
    assert run_cli(argv + ["--r", "3"], capsys) == (0, out)


def _package_env():
    src = os.path.dirname(os.path.dirname(primebias.__file__))
    return dict(os.environ, PYTHONPATH=src)


def test_sparse_count_json_peak_rss_stays_bounded():
    # phi(60)**6 = 2**24 codes: 128 MiB of counts in the main process and
    # in its chunk, and 401,240 rows written BLOCK_ROWS at a time; with
    # each table written as one block the run peaked at 937 MiB
    helper = os.path.join(os.path.dirname(__file__), "peak_rss.py")
    proc = subprocess.run(
        [sys.executable, helper, "400", sys.executable, "-m", "primebias",
         "count", "--q", "60", "--r", "6", "--x", "1e7", "--format", "json"],
        env=_package_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_integral_pair_at_large_modulus_peak_rss_stays_bounded():
    # one pair is a one-column row: O(q) arrays at q = 19110 (phi = 4032),
    # where a whole row's weights alone would take 2.5 GB and a q x q
    # epsilon table 2.9 GB; the run peaked at 55 MiB on one x86 host
    helper = os.path.join(os.path.dirname(__file__), "peak_rss.py")
    proc = subprocess.run(
        [sys.executable, helper, "120", sys.executable, "-m", "primebias",
         "predict", "--q", "19110", "--classes", "1,1", "--x", "1e9",
         "--method", "integral"],
        env=_package_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["primebias", "primebias.cli"])
def test_python_m_runs_the_cli(module, capsys):
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", module, *args], env=_package_env(),
        capture_output=True, text=True, timeout=120)
    proc = run("count", "--q", "3", "--x", "100")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    # the 23 primes from 5 to 97 each open one window
    assert len(rows) == 4 and sum(int(r["count"]) for r in rows) == 23
    _, out = run_cli(["count", "--q", "3", "--x", "100"], capsys)
    assert proc.stdout.replace("\r\n", "\n") == out.replace("\r\n", "\n")
    proc = run("count", "--q", "2", "--x", "100")
    assert proc.returncode == 2
    assert "modulus must be >= 3" in proc.stderr


def test_default_constants_sieve_no_further_than_1e4(tmp_path):
    # the full Euler products need the primes below the exact bound only,
    # and never the power-sum pass of a truncated product; run in a fresh
    # interpreter so no cached value hides a sieve
    script = (
        "import json, sys\n"
        "from primebias import arith, cli, lfun\n"
        "limits = []\n"
        "def recording(limit, inner=arith.primes_upto):\n"
        "    limits.append(int(limit))\n"
        "    return inner(limit)\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.startswith('primebias') and hasattr(mod, 'primes_upto'):\n"
        "        mod.primes_upto = recording\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('power-sum pass in a default run')\n"
        "lfun._residue_power_sums = refuse\n"
        "for args in (['constants', '--q', '60'], ['dump-lvalues', '--q', '97']):\n"
        "    assert cli.main(args + ['--output', sys.argv[1]]) == 0, args\n"
        "# modules the commands loaded after the patch bound the recording\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.startswith('primebias') and hasattr(mod, 'primes_upto'):\n"
        "        assert mod.primes_upto is recording, name\n"
        "print(json.dumps(limits))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "t.csv")], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    limits = json.loads(proc.stdout)
    assert limits and max(limits) <= 10**4, limits
    manifest = (tmp_path / "t.csv.manifest").read_text().splitlines()
    assert "truncation=none" in manifest


def test_manifest_names_an_explicit_truncation(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _ = run_cli(["constants", "--q", "5", "--truncation", "200000",
                       "--output", str(out)], capsys)
    assert code == 0
    manifest = (tmp_path / "c.csv.manifest").read_text().splitlines()
    assert "truncation=200000" in manifest
    assert "tail_bound=%.15g" % primebias.tail_bound(200000) in manifest


def test_compare_manifest_names_its_euler_products(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _ = run_cli(["compare", "--q", "5", "--x", "1e5", "--truncation",
                       "2e5", "--output", str(out)], capsys)
    assert code == 0
    manifest = (tmp_path / "c.csv.manifest").read_text().splitlines()
    assert [line.partition("=")[0] for line in manifest[2:8]] == [
        "modulus", "truncation", "tail_bound", "x", "rel_tol", "threads"]
    assert "truncation=200000" in manifest
    assert "tail_bound=%.15g" % primebias.tail_bound(200000) in manifest


def test_wall_seconds_cover_the_rows_made_while_writing(tmp_path, capsys,
                                                        monkeypatch):
    # most blocks of a pattern table are made as the writer asks for them
    write = cli._csv

    def slow(blocks, fh):
        time.sleep(0.2)
        return write(blocks, fh)

    monkeypatch.setattr(cli, "_csv", slow)
    out = tmp_path / "p.csv"
    code, _ = run_cli(["predict", "--q", "5", "--x", "1e6", "--method",
                       "asymptotic", "--output", str(out)], capsys)
    assert code == 0
    manifest = (tmp_path / "p.csv.manifest").read_text().splitlines()
    assert float(manifest[-1].removeprefix("wall_seconds=")) >= 0.2


def _loads(script):
    """The modules a fresh interpreter has loaded after running script:
    numpy, numpy.ma, the process machinery and every primebias module."""
    script += (
        "\nimport json, sys\n"
        "watched = ('numpy', 'numpy.ma', 'multiprocessing',\n"
        "           'concurrent.futures')\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m in watched or m.startswith('primebias'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_command_loads_only_what_it_runs(tmp_path):
    out = str(tmp_path / "t.csv")
    assert _loads("import primebias") == {"primebias"}
    run = "from primebias import cli\nassert cli.main({}) == 0\n".format
    loaded = _loads(run(["constants", "--q", "12", "--output", out]))
    assert "primebias.constants" in loaded
    assert not loaded & {"primebias.sieve", "primebias.predict", "numpy.ma",
                         "multiprocessing", "concurrent.futures"}, loaded
    loaded = _loads(run(["dump-lvalues", "--q", "97", "--output", out]))
    assert "primebias.lfun" in loaded and "numpy.ma" not in loaded, loaded
    # count, and so its spawned workers, loads only the sieve and arith
    loaded = _loads(run(["count", "--q", "12", "--x", "1e5", "--output", out]))
    assert loaded == {"numpy", "primebias", "primebias.arith",
                      "primebias.cli", "primebias.sieve"}, loaded
    # the check-only routes load with no command
    commands = [
        ["count", "--q", "3", "--x", "1e4"],
        ["predict", "--q", "5", "--x", "1e6"],
        ["constants", "--q", "5", "--forms"],
        ["s0", "--q", "5", "--v", "0,1", "--H", "100"],
        ["compare", "--q", "3", "--x", "1e4"],
        ["dump-characters", "--q", "5"],
        ["dump-lvalues", "--q", "5"],
    ]
    loaded = _loads("".join(run(argv + ["--output", out]) for argv in commands))
    assert "primebias.oracles" not in loaded, loaded


def test_public_names_resolve_to_their_submodules():
    namespace = {}
    exec("from primebias import *", namespace)
    for name in primebias.__all__:
        value = getattr(primebias, name)
        owner = sys.modules[value.__module__]
        assert owner.__name__.startswith("primebias."), name
        assert getattr(owner, name) is value is namespace[name], name
    assert set(primebias.__all__) <= set(dir(primebias))
    with pytest.raises(AttributeError):
        primebias.no_such_name
