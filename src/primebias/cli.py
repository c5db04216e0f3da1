"""Command line front end.

Subcommands: count, predict, constants, s0, compare, dump-characters,
dump-lvalues.  Every command emits a flat table, CSV by default or JSON
with --format json.  Floats are printed with 15 significant digits;
counts stay exact integers.  --output FILE writes the table to FILE and
a key=value run manifest to FILE.manifest.

Every command returns its table as blocks for one writer.  A block is a
run of rows: a dict, in field order, from each field to a column (a list
or array, one cell per row; a block has at least one) or to the one value
its rows share, such as count's q and limit.  Blocks are written one at a
time, so a run holds one block's text at once; constants and asymptotic
predict make one block per leading class from arrays over all their
patterns.  Every computation that can fail ends before the first byte is
written.

Exit codes: 0 on success, 2 on invalid arguments, 3 when an internal
cross-check fails (two formulas for the same constant disagreeing is a
bug worth a loud exit, not a warning).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from contextlib import nullcontext
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__
from .arith import (
    InternalConsistencyError,
    Modulus,
    ResiduePattern,
    check_pattern_budget,
    check_rel_tol,
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


def _rel_tol(text: str) -> float:
    """A quadrature tolerance, refused before any work if out of range."""
    try:
        return check_rel_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _truncation(args):
    """The manifest's truncation: the bound P, or none for the full product."""
    return "none" if args.truncation is None else args.truncation


def _pattern_keys(patterns, r: int) -> list[str]:
    """The key of each r-tuple of classes, such as 1;7;11."""
    template = ";".join(["%s"] * r)
    return [template % c for c in patterns]


def _columns(rows):
    """The blocks of a list of dicts that share their keys: one block."""
    return [{f: [row[f] for row in rows] for f in rows[0]}] if rows else []


def _pattern_axes(args):
    """The classes each position runs over: --classes, or every class."""
    if args.classes is not None:
        return [(a,) for a in ResiduePattern(args.q, args.classes).classes]
    check_pattern_budget(args.q, args.r)
    return [Modulus(args.q).classes] * args.r


# ---------------------------------------------------------------- commands


def _cmd_count(args):
    from .sieve import (SieveConfig, _code_classes, _listed_codes,
                        count_patterns, count_patterns_series,
                        effective_workers)

    cfg = SieveConfig(
        q=args.q, r=args.r, skip=args.skip, x=args.x, count=args.count,
        threads=args.threads,
    )
    workers = effective_workers(cfg.threads)
    print(f"# sieving q={cfg.q} r={cfg.r} mode={'by_x' if cfg.x else 'by_count'}"
          f" limit={cfg.x or cfg.count} threads={workers}",
          file=sys.stderr)
    if args.checkpoints:
        tables = count_patterns_series(cfg, list(args.checkpoints))
    else:
        tables = [count_patterns(cfg)]

    def blocks():
        # the key strings are built once per set of listed codes: once for
        # r <= 3, where every table lists every code
        mod = Modulus(cfg.q)
        codes = keys = None
        for t in tables:
            listed = _listed_codes(t.array, t.r)
            if not np.array_equal(listed, codes):
                codes = listed
                classes = _code_classes(codes, mod, t.r).tolist()
                keys = _pattern_keys(zip(*classes), t.r)
            yield {"q": t.q, "r": t.r, "skip": t.skip, "mode": t.mode,
                   "limit": t.limit, "classes": keys,
                   "count": t.array[codes].tolist()}

    return blocks(), {"modulus": args.q, "threads": workers}


def _cmd_predict(args):
    from .constants import _pattern_constants
    from .lfun import tail_bound
    from .predict import _asymptotic_terms, integral_prediction, skip_prediction

    q, xs = args.q, args.x
    axes = _pattern_axes(args)
    if args.method == "asymptotic":
        c1, c2 = _pattern_constants(q, np.ix_(*axes), args.truncation)
        patterns = Modulus(q).phi ** len(axes)
        values = np.stack([_asymptotic_terms(c1, c2, patterns, x)["value"]
                           for x in xs], axis=-1)
        method, errors = "asymptotic", None
    elif len(axes) != 2:
        raise ValueError(f"{args.method} predictions are defined for pairs")
    else:
        rows = [integral_prediction(q, a, b, x, truncation=args.truncation,
                                    rel_tol=args.rel_tol)
                if args.method == "integral"
                else skip_prediction(q, a, b, args.skip, x)
                for a in axes[0] for b in axes[1] for x in xs]
        method = rows[0].method
        values = np.array([r.value for r in rows]).reshape(len(axes[0]), -1)
        errors = np.array([r.quadrature_error for r in rows]).reshape(values.shape)
    # one block per leading class; rows run pattern by pattern, then by x
    tail = _pattern_keys(itertools.product(*axes[1:]), len(axes) - 1)
    blocks = ({"pattern": [f"{a};{k}" for k in tail for _ in xs],
               "x": list(xs) * len(tail), "value": values[i].ravel(),
               "method": method,
               "error_estimate": None if errors is None else errors[i]}
              for i, a in enumerate(axes[0]))
    meta = {
        "modulus": q, "truncation": _truncation(args),
        "tail_bound": tail_bound(args.truncation), "rel_tol": args.rel_tol,
    }
    return blocks, meta


def _cmd_constants(args):
    from .constants import FORM_AGREEMENT_TOL, _pair_forms, _pattern_constants
    from .lfun import tail_bound

    q, truncation = args.q, args.truncation
    axes = _pattern_axes(args)
    c1, c2 = _pattern_constants(q, np.ix_(*axes), truncation)
    tail = _pattern_keys(itertools.product(*axes[1:]), len(axes) - 1)
    b = np.array(axes[-1])

    def blocks():
        for i, a in enumerate(axes[0]):
            keys = [f"{a};{k}" for k in tail]
            if not (args.forms and len(axes) == 2):
                yield {"pattern": keys, "c1": c1[i].ravel(),
                       "c2": c2[i].ravel(), "c2_method": "reduced"}
                continue
            # each pair's c2 row, then a row per closed form that applies
            tags, values, applies = zip(("reduced", c2[i], True),
                                        *_pair_forms(q, a, b, truncation))
            shown = np.column_stack(np.broadcast_arrays(*applies))
            per_pair = shown.sum(axis=1)
            yield {
                "pattern": [k for k, n in zip(keys, per_pair) for _ in range(n)],
                "c1": np.repeat(c1[i], per_pair),
                "c2": np.column_stack(values)[shown],
                "c2_method": np.broadcast_to(tags, shown.shape)[shown],
            }

    meta = {
        "modulus": q, "truncation": _truncation(args),
        "tail_bound": tail_bound(truncation),
        "tolerance": FORM_AGREEMENT_TOL,
    }
    return blocks(), meta


def _analytic_s0(q, v, H, k, truncation):
    from .constants import s0_main
    from .singular import s0_moment_main

    if k == 0:
        return s0_main(q, v, H, truncation=truncation)
    if v % q == 0:
        return s0_moment_main(q, H, k)
    return 0.0  # moments off the zero class have no main term


def _cmd_s0(args):
    from .singular import SingularContext, s0_brute

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
        "modulus": args.q, "truncation": _truncation(args),
        "tail_bound": ctx.tail_bound,
    }
    return _columns(rows), meta


def _cmd_compare(args):
    from .constants import _pattern_constants
    from .predict import _asymptotic_terms, integral_prediction
    from .sieve import (SieveConfig, _code_classes, _listed_codes,
                        count_patterns, effective_workers)

    cfg = SieveConfig(q=args.q, r=args.r, x=args.x, count=args.count,
                      threads=args.threads)
    table = count_patterns(cfg)
    # predictions are taken at the largest prime actually seen in by_count
    # mode so both columns describe the same window of integers
    x = args.x if args.x is not None else table.largest_prime
    meta = {
        "modulus": args.q, "x": x, "truncation": _truncation(args),
        "rel_tol": args.rel_tol, "threads": effective_workers(args.threads),
    }
    codes = _listed_codes(table.array, args.r)
    if not len(codes):  # r >= 4 lists only the patterns counted
        return [], meta
    mod = Modulus(args.q)
    actual = table.array[codes].tolist()
    classes = _code_classes(codes, mod, args.r)
    patterns = list(zip(*classes.tolist()))
    c1, c2 = _pattern_constants(args.q, classes, args.truncation)
    patterns_total = mod.phi ** args.r
    asym = _asymptotic_terms(c1, c2, patterns_total, x)["value"].tolist()

    def rel_err(values):
        return [v / n - 1 if n else "" for v, n in zip(values, actual)]

    integ = rel_integ = [""] * len(patterns)
    if args.r == 2:
        integ = [integral_prediction(args.q, a, b, x, truncation=args.truncation,
                                     rel_tol=args.rel_tol).value
                 for a, b in patterns]
        rel_integ = rel_err(integ)
    block = {
        "pattern": _pattern_keys(patterns, args.r), "actual": actual,
        "integral_prediction": integ, "asymptotic_prediction": asym,
        "rel_err_integral": rel_integ, "rel_err_asymptotic": rel_err(asym),
    }
    return [block], meta


def _cmd_dump_characters(args):
    from .characters import character_group

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
    return _columns(rows), {"modulus": args.q}


def _cmd_dump_lvalues(args):
    from .lfun import build_ctable, tail_bound

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
        "modulus": args.q, "truncation": _truncation(args),
        "tail_bound": tail_bound(args.truncation),
    }
    return _columns(rows), meta


# ------------------------------------------------------------------ plumbing


_TRUNCATION_HELP = ("stop the Euler products at the prime bound P; "
                    "default: the full products")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="primebias",
        description="Counts and predictions for residue patterns of "
                    "consecutive primes.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, metavar="FILE")
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="key=value defaults; explicit flags win")

    sp = sub.add_parser("count", help="exact pattern counts by sieve")
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
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("predict", help="predicted pattern counts")
    sp.add_argument("--x", type=_int_list, required=True)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--method", choices=("integral", "asymptotic", "skip"),
                    default="integral")
    sp.add_argument("--classes", type=_classes_arg, default=None,
                    help="single pattern; default is all phi(q)^r patterns")
    sp.add_argument("--skip", type=int, default=2)
    sp.add_argument("--truncation", type=_exact_int, default=None,
                    help=_TRUNCATION_HELP)
    sp.add_argument("--rel-tol", type=_rel_tol, default=1e-7)
    common(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("constants", help="bias constants per pattern")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--classes", type=_classes_arg, default=None,
                    help="single pattern; default is all phi(q)^r patterns")
    sp.add_argument("--truncation", type=_exact_int, default=None,
                    help=_TRUNCATION_HELP)
    sp.add_argument("--forms", action="store_true",
                    help="also list each independent formula's value")
    common(sp)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("s0", help="truncated pair-correlation sums")
    sp.add_argument("--v", type=_int_list, required=True)
    sp.add_argument("--H", type=float, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--method", choices=("brute", "analytic", "both"),
                    default="both")
    sp.add_argument("--truncation", type=_exact_int, default=None,
                    help=_TRUNCATION_HELP)
    common(sp)
    sp.set_defaults(func=_cmd_s0)

    sp = sub.add_parser("compare", help="sieve counts next to predictions")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--x", type=_exact_int, default=None)
    sp.add_argument("--nth-prime", dest="count", type=_exact_int,
                    default=None)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes, at most one per core")
    sp.add_argument("--truncation", type=_exact_int, default=None,
                    help=_TRUNCATION_HELP)
    sp.add_argument("--rel-tol", type=_rel_tol, default=1e-7)
    common(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("dump-characters", help="multiplicative character table")
    common(sp)
    sp.set_defaults(func=_cmd_dump_characters)

    sp = sub.add_parser("dump-lvalues", help="L-values and Euler factors")
    sp.add_argument("--truncation", type=_exact_int, default=None,
                    help=_TRUNCATION_HELP)
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


def _column(value):
    """A block's column as a list of cells, or None for a shared value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value if isinstance(value, list) else None


def _csv(blocks, fh) -> int:
    """Write the header, then each block's rows through one template, and
    return the number of rows.  The bytes are those csv.DictWriter writes:
    no field needs quoting (numbers, words, keys such as 1;7;11); rows end
    in CRLF.  Shared fields before a block's first column are formatted
    once, into the separator between its rows.  No block's text outlives
    its write."""
    nrows = 0
    for block in blocks:
        lead, pieces, columns = "", [], []
        for value in block.values():
            cells = _column(value)
            if cells is None and not columns:
                lead += _fmt(value) + ","
            elif cells is None:
                pieces.append(_fmt(value).replace("%", "%%"))
            else:
                floats = {issubclass(k, float) for k in set(map(type, cells))}
                if floats == {True, False}:  # floats among other cells
                    cells = [_fmt(v) for v in cells]
                pieces.append("%.15g" if floats == {True} else "%s")
                columns.append(cells)
        if not columns[0]:
            continue
        if not nrows:
            fh.write(",".join(block) + "\r\n")
        template = ",".join(pieces)
        fh.write(lead)
        fh.write(("\r\n" + lead).join([template % row for row in zip(*columns)]))
        fh.write("\r\n")
        nrows += len(columns[0])
    if not nrows:
        fh.write("\r\n")  # the header DictWriter writes for no columns
    return nrows


def _json(blocks, fh) -> int:
    """Write one json.dumps(rows, indent=2) of every row as a dict, block
    by block, and return the number of rows.  Each block's items are cut
    from the dump of its own rows, between its "[\n" and "\n]"."""
    nrows = 0
    for block in blocks:
        cells = [itertools.repeat(value) if (column := _column(value)) is None
                 else column for value in block.values()]
        rows = [dict(zip(block, row)) for row in zip(*cells)]
        if rows:
            fh.write(("[\n" if not nrows else ",\n")
                     + json.dumps(rows, indent=2)[2:-2])
        nrows += len(rows)
        del rows  # before the next block's rows are built
    fh.write("\n]\n" if nrows else "[]\n")
    return nrows


def _manifest(argv, meta, wall, nrows) -> str:
    fields = {"command": "primebias " + " ".join(argv),
              "version": __version__, **meta, "rows": nrows}
    return ("".join(f"{k}={_fmt(v)}\n" for k, v in fields.items())
            + f"wall_seconds={wall:.3f}\n")


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
        blocks, meta = args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
        nrows = (_json if args.format == "json" else _csv)(blocks, fh)
    if args.output:
        with open(args.output + ".manifest", "w") as fh:
            fh.write(_manifest(argv, meta, wall, nrows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
