"""Command line front end.

Subcommands: count, predict, constants, s0, compare, dump-characters,
dump-lvalues.  Every command emits a flat table, CSV by default or JSON
with --format json.  Floats are printed with 15 significant digits;
counts stay exact integers.  --output FILE writes the table to FILE and
a key=value run manifest to FILE.manifest.

count writes its CSV table by table, straight from the count tables: each
pattern's key string is built once, each table's constant fields are
formatted once, and one string per table goes to the output.  Every table
is complete before the first byte is written, so a failed run leaves no
partial file.  The bytes are those the csv module writes (CRLF rows).
The other commands build one dict per row; each of their rows costs a
real computation, so formatting them is cheap by comparison.

Exit codes: 0 on success, 2 on invalid arguments, 3 when an internal
cross-check fails (two formulas for the same constant disagreeing is a
bug worth a loud exit, not a warning).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from decimal import Decimal, InvalidOperation

from . import __version__
from .arith import Modulus, ResiduePattern
from .characters import character_group
from .constants import (
    FORM_AGREEMENT_TOL,
    InternalConsistencyError,
    c2_pair_forms,
    conjecture_constants,
    s0_main,
)
from .lfun import DEFAULT_TRUNCATION, build_ctable, tail_bound
from .predict import (
    asymptotic_prediction,
    integral_prediction,
    skip_prediction,
)
from .singular import SingularContext, s0_brute, s0_moment_main
from .sieve import (
    SieveConfig,
    count_patterns,
    count_patterns_series,
    effective_workers,
)

__all__ = ["main"]


def _fmt(value):
    if isinstance(value, float):
        return "%.15g" % value
    return str(value)


def _classes_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad class list {text!r}")
    if len(parts) < 1:
        raise argparse.ArgumentTypeError("need at least one residue class")
    return parts


def _exact_int(text: str) -> int:
    """An integer, plain or in scientific notation such as 1e9.

    Parsed exactly: a value with a fractional part is refused, never
    truncated.
    """
    try:
        value = Decimal(text.strip())
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value.adjusted() > 100:
        raise argparse.ArgumentTypeError(f"{text!r} is out of range")
    return int(value)


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each read by _exact_int."""
    return tuple(_exact_int(t) for t in text.split(","))


def _pattern_key(classes) -> str:
    return ";".join(str(a) for a in classes)


# ---------------------------------------------------------------- commands


def _cmd_count(args):
    cfg = SieveConfig(
        q=args.q, r=args.r, skip=args.skip, x=args.x, count=args.count,
        threads=args.threads,
    )
    workers = effective_workers(cfg.threads)
    print(f"# sieving q={cfg.q} r={cfg.r} mode={'by_x' if cfg.x else 'by_count'}"
          f" limit={cfg.x or cfg.count} threads={workers}",
          file=sys.stderr)
    if args.checkpoints and args.x is not None:
        tables = count_patterns_series(cfg, list(args.checkpoints))
    else:
        tables = [count_patterns(cfg)]
    meta = {"modulus": args.q, "threads": workers}
    return tables, meta


def _cmd_predict(args):
    mod = Modulus(args.q)
    if args.classes is not None:
        patterns = [tuple(args.classes)]
        ResiduePattern(mod, patterns[0])  # reject classes not coprime to q
    else:
        patterns = list(itertools.product(mod.classes, repeat=args.r))
    rows = []
    for classes in patterns:
        for x in args.x:
            if args.method == "integral":
                if len(classes) != 2:
                    raise ValueError(
                        "integral predictions are defined for pairs")
                a, b = classes
                row = integral_prediction(args.q, a, b, x,
                                          truncation=args.truncation,
                                          rel_tol=args.rel_tol)
            elif args.method == "skip":
                if len(classes) != 2:
                    raise ValueError("skip predictions are defined for pairs")
                a, b = classes
                row = skip_prediction(args.q, a, b, args.skip, x)
            else:
                row = asymptotic_prediction(args.q, classes, x,
                                            truncation=args.truncation)
            rows.append({
                "pattern": _pattern_key(row.classes), "x": x,
                "value": row.value, "method": row.method,
                "error_estimate": row.quadrature_error,
            })
    meta = {
        "modulus": args.q, "truncation": args.truncation,
        "tail_bound": tail_bound(args.truncation), "rel_tol": args.rel_tol,
    }
    return rows, meta


def _cmd_constants(args):
    mod = Modulus(args.q)
    if args.classes is not None:
        patterns = [tuple(args.classes)]
    else:
        patterns = list(itertools.product(mod.classes, repeat=args.r))
    rows = []
    for classes in patterns:
        cc = conjecture_constants(args.q, classes,
                                  truncation=args.truncation)
        rows.append({
            "pattern": _pattern_key(cc.classes),
            "c1": cc.c1, "c2": cc.c2, "c2_method": cc.c2_method,
        })
        if args.forms and len(cc.classes) == 2:
            a, b = cc.classes
            forms = c2_pair_forms(args.q, a, b, truncation=args.truncation)
            for tag, val in sorted(forms.items()):
                rows.append({
                    "pattern": _pattern_key(cc.classes),
                    "c1": cc.c1, "c2": val, "c2_method": tag,
                })
    meta = {
        "modulus": args.q, "truncation": args.truncation,
        "tail_bound": tail_bound(args.truncation),
        "tolerance": FORM_AGREEMENT_TOL,
    }
    return rows, meta


def _analytic_s0(q, v, H, k, truncation):
    if k == 0:
        return s0_main(q, v, H, truncation=truncation)
    if v % q == 0:
        return s0_moment_main(q, H, k)
    return 0.0  # moments off the zero class have no main term


def _cmd_s0(args):
    ctx = SingularContext(args.q, truncation=args.truncation)
    rows = []
    for v in args.v:
        row = {"q": args.q, "v": v, "H": args.H, "k": args.k,
               "method": args.method}
        if args.method in ("brute", "both"):
            got = s0_brute(ctx, v, args.H, k=args.k)
            row["brute"] = got.value
            row["cutoff"] = got.cutoff
        if args.method in ("analytic", "both"):
            row["analytic"] = _analytic_s0(args.q, v, args.H, args.k,
                                           args.truncation)
        if args.method == "both":
            row["difference"] = row["brute"] - row["analytic"]
        rows.append(row)
    meta = {
        "modulus": args.q, "truncation": args.truncation,
        "tail_bound": ctx.tail_bound,
    }
    return rows, meta


def _cmd_compare(args):
    cfg = SieveConfig(q=args.q, r=args.r, x=args.x, count=args.count,
                      threads=args.threads)
    table = count_patterns(cfg)
    # predictions are taken at the largest prime actually seen in by_count
    # mode so both columns describe the same window of integers
    x = args.x if args.x is not None else table.largest_prime
    rows = []
    for classes, actual in sorted(table.counts.items()):
        asym = asymptotic_prediction(args.q, classes, x,
                                     truncation=args.truncation)
        row = {
            "pattern": _pattern_key(classes), "actual": actual,
            "integral_prediction": "", "asymptotic_prediction": asym.value,
            "rel_err_integral": "",
            "rel_err_asymptotic": asym.value / actual - 1 if actual else "",
        }
        if args.r == 2:
            integ = integral_prediction(args.q, classes[0], classes[1], x,
                                        truncation=args.truncation,
                                        rel_tol=args.rel_tol)
            row["integral_prediction"] = integ.value
            if actual:
                row["rel_err_integral"] = integ.value / actual - 1
        rows.append(row)
    meta = {
        "modulus": args.q, "x": x, "truncation": args.truncation,
        "rel_tol": args.rel_tol, "threads": effective_workers(args.threads),
    }
    return rows, meta


def _cmd_dump_characters(args):
    group = character_group(args.q)
    rows = []
    for chi in group.characters():
        vals = chi.values_table()
        rows.append({
            "name": chi.name(), "modulus": chi.modulus,
            "conductor": chi.conductor(), "order": chi.order(),
            "parity": chi.parity(),
            "values": ";".join("%.15g%+.15gj" % (z.real, z.imag)
                               for z in vals),
        })
    return rows, {"modulus": args.q}


def _cmd_dump_lvalues(args):
    ctable = build_ctable(args.q, truncation=args.truncation)
    rows = []
    for r in ctable.rows:
        rows.append({
            "name": r.name, "conductor": r.conductor, "parity": r.parity,
            "l0_re": r.l0.real, "l0_im": r.l0.imag,
            "l1_re": r.l1.real, "l1_im": r.l1.imag,
            "a_re": r.a.real, "a_im": r.a.imag,
            "c_re": r.c.real, "c_im": r.c.imag,
            "tail": r.tail,
        })
    meta = {
        "modulus": args.q, "truncation": args.truncation,
        "tail_bound": tail_bound(args.truncation),
    }
    return rows, meta


# ------------------------------------------------------------------ plumbing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="primebias",
        description="Counts and predictions for residue patterns of "
                    "consecutive primes.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, metavar="FILE")
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="key=value defaults; explicit flags win")
        sp.set_defaults(render=_render_rows)

    sp = sub.add_parser("count", help="exact pattern counts by sieve")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--skip", type=int, default=1)
    sp.add_argument("--x", type=_exact_int, default=None,
                    help="count windows whose first prime is <= X")
    sp.add_argument("--nth-prime", dest="count", type=_exact_int,
                    default=None, help="count the first N windows instead")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes, at most one per core")
    sp.add_argument("--checkpoints", type=_int_list, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_count, render=_render_count)

    sp = sub.add_parser("predict", help="predicted pattern counts")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--x", type=_int_list, required=True)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--method", choices=("integral", "asymptotic", "skip"),
                    default="integral")
    sp.add_argument("--classes", type=_classes_arg, default=None,
                    help="single pattern; default is all phi(q)^r patterns")
    sp.add_argument("--skip", type=int, default=2)
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    sp.add_argument("--rel-tol", type=float, default=1e-7)
    common(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("constants", help="bias constants per pattern")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--classes", type=_classes_arg, default=None,
                    help="single pattern; default is all phi(q)^r patterns")
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    sp.add_argument("--forms", action="store_true",
                    help="also list each independent formula's value")
    common(sp)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("s0", help="truncated pair-correlation sums")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--v", type=_int_list, required=True)
    sp.add_argument("--H", type=float, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--method", choices=("brute", "analytic", "both"),
                    default="both")
    sp.add_argument("--truncation", type=int, default=10_000_000)
    common(sp)
    sp.set_defaults(func=_cmd_s0)

    sp = sub.add_parser("compare", help="sieve counts next to predictions")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--x", type=_exact_int, default=None)
    sp.add_argument("--nth-prime", dest="count", type=_exact_int,
                    default=None)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes, at most one per core")
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    sp.add_argument("--rel-tol", type=float, default=1e-7)
    common(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("dump-characters", help="multiplicative character table")
    sp.add_argument("--q", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_dump_characters)

    sp = sub.add_parser("dump-lvalues", help="L-values and Euler factors")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    common(sp)
    sp.set_defaults(func=_cmd_dump_lvalues)
    return p


def _load_config(path: str) -> list[str]:
    flags: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flags += [f"--{key.strip().replace('_', '-')}", value.strip()]
    return flags


def _serialize(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, default=str) + "\n"
    out = io.StringIO()
    fields: list[str] = []
    for row in rows:
        for k in row:
            if k not in fields:
                fields.append(k)
    writer = csv.DictWriter(out, fieldnames=fields, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    return out.getvalue()


def _render_rows(rows, fmt: str):
    """(row count, output chunks) for a list of row dicts."""
    return len(rows), [_serialize(rows, fmt)]


def _count_rows(tables):
    """Yield (table, pattern keys, counts) per table, in pattern order.

    Tables of r <= 3 list every pattern, so their key strings are built
    once and shared; sparse tables build theirs when the patterns change.
    The keys read as _pattern_key's, from one %-template per length r.
    """
    classes = keys = None
    for t in tables:
        order = sorted(t.counts)
        if order != classes:
            template = ";".join(["%s"] * t.r)
            classes, keys = order, [template % c for c in order]
        yield t, keys, [t.counts[c] for c in classes]


_COUNT_FIELDS = ("q", "r", "skip", "mode", "limit", "classes", "count")


def _count_csv(tables):
    """Yield the count CSV, the header and then one chunk per table.

    Byte for byte what csv.DictWriter writes from one dict per row: no
    field needs quoting (integers, the mode word, keys such as 1;7;11),
    and rows end in CRLF.  With no rows at all the output is the empty
    header line DictWriter writes for no columns.
    """
    if not any(t.counts for t in tables):
        yield "\r\n"
        return
    yield ",".join(_COUNT_FIELDS) + "\r\n"
    for t, keys, counts in _count_rows(tables):
        prefix = f"{t.q},{t.r},{t.skip},{t.mode},{t.limit},"
        yield "".join([f"{prefix}{k},{n}\r\n" for k, n in zip(keys, counts)])


def _render_count(tables, fmt: str):
    """(row count, output chunks) for the count command's tables."""
    if fmt == "json":
        return _render_rows(
            [dict(zip(_COUNT_FIELDS, (t.q, t.r, t.skip, t.mode, t.limit, k, n)))
             for t, keys, counts in _count_rows(tables)
             for k, n in zip(keys, counts)], fmt)
    return sum(len(t.counts) for t in tables), _count_csv(tables)


def _manifest(argv, meta, wall, nrows) -> str:
    lines = [
        "command=primebias " + " ".join(argv),
        f"version={__version__}",
    ]
    for k, v in meta.items():
        lines.append(f"{k}={_fmt(v)}")
    lines.append(f"rows={nrows}")
    lines.append(f"wall_seconds={wall:.3f}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # apply --config before parsing: required flags may live in the file
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.partition("=")[2]
        else:
            continue
        try:
            injected = _load_config(path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # injected flags sit before the user's, so explicit flags win
        argv = argv[:1] + injected + argv[1:]
        break
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        rows, meta = args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    nrows, chunks = args.render(rows, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
        with open(args.output + ".manifest", "w") as fh:
            fh.write(_manifest(argv, meta, wall, nrows))
    else:
        sys.stdout.writelines(chunks)
    return 0
