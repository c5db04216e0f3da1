"""Command line front end.

Subcommands: count, predict, constants, s0, compare, dump-characters,
dump-lvalues.  Every command emits a flat table, CSV by default or JSON
with --format json.  Floats are printed with 15 significant digits;
counts stay exact integers.  --output FILE writes the table to FILE and
a key=value run manifest to FILE.manifest.

Every command returns its table as blocks for one writer.  A block is a
run of one or more rows: a dict, in field order, from each field to a
column (a list or array, one cell per row; a block has at least one) or
to the one value its rows share, such as count's q and limit.  Blocks
are written one at a time, so a run holds one block's text at once.
The pattern tables make one per BLOCK_ROWS patterns of an arith.PatternGrid,
with the keys, counts and constants of those patterns alone; the dumps
one per block of characters, named from their labels.  Every check a
block runs fails before the first byte is written, as the first block
is made before a command returns (_checked).

Exit codes: 0 on success, 2 on invalid arguments (an --output FILE that
cannot be written among them, refused before any work), 3 when an
internal cross-check fails (two formulas for the same constant
disagreeing is a bug worth a loud exit, not a warning), 141 when the
reader of stdout goes away, as for a tool stopped by SIGPIPE.  An error
while writing FILE removes FILE and FILE.manifest if this run made them.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
import time
from contextlib import nullcontext, suppress
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__
from .arith import (
    InternalConsistencyError,
    Modulus,
    PatternGrid,
    ResiduePattern,
    check_pattern_budget,
    check_rel_tol,
    check_sieve_limit,
)

__all__ = ["main"]

BLOCK_ROWS = 1 << 14  # patterns (or dump-lvalues rows) formatted at once


def _fmt(value):
    if isinstance(value, float):
        return "%.15g" % value
    return "" if value is None else str(value)


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


def _truncation_arg(text: str) -> int:
    """A prime bound P for the Euler products, refused before any work
    when the tail estimate needs more (P < 100) or the sieve budget allows
    less."""
    from .lfun import tail_bound

    value = _exact_int(text)
    try:
        tail_bound(value)
        check_sieve_limit(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _product_meta(args, **more):
    """The manifest of a command that reads the Euler products: modulus,
    truncation (the bound P, or none for the full product) and tail
    bound, then more fields, or one of those three."""
    from .lfun import tail_bound

    return {"modulus": args.q,
            "truncation": "none" if args.truncation is None else args.truncation,
            "tail_bound": tail_bound(args.truncation), **more}


def _pattern_grid(args) -> PatternGrid:
    """The patterns of a command: the one of --classes, which a --r must
    match, or every class at each of --r positions, 2 by default."""
    if args.classes is not None:
        if args.r not in (None, len(args.classes)):
            raise ValueError(f"--r {args.r} disagrees with the "
                             f"{len(args.classes)} classes of --classes")
        return PatternGrid(zip(ResiduePattern(args.q, args.classes).classes))
    r = 2 if args.r is None else args.r
    check_pattern_budget(args.q, r)
    return PatternGrid([Modulus(args.q).classes] * r)


def _checked(blocks):
    """blocks, its first made now: what a block checks fails before output."""
    return itertools.chain(list(itertools.islice(blocks, 1)), blocks)


# ---------------------------------------------------------------- commands


def _cmd_count(args):
    from .sieve import (SieveConfig, count_patterns, count_patterns_series,
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
    grid = tables[0].grid  # one set of key tables for every table
    blocks = ({"q": t.q, "r": t.r, "skip": t.skip, "mode": t.mode,
               "limit": t.limit, "classes": grid.keys(codes),
               "count": t.array[codes]}
              for t in tables for codes in t.listing(BLOCK_ROWS))
    return blocks, {"modulus": args.q, "threads": workers}


def _cmd_predict(args):
    from .predict import _predictor

    xs, grid = args.x, _pattern_grid(args)
    predict = _predictor(args.q, grid, xs, args.method, args.truncation,
                         args.rel_tol, args.skip)
    method = f"skip{args.skip}" if args.method == "skip" else args.method

    def blocks():
        # rows run pattern by pattern, then by x
        for codes in grid.listing(BLOCK_ROWS):
            values, errors = predict(codes)
            yield {"pattern": np.repeat(grid.keys(codes), len(xs)),
                   "x": list(xs) * len(codes), "value": values.ravel(),
                   "method": method,
                   "error_estimate": None if errors is None else errors.ravel()}

    return _checked(blocks()), _product_meta(args, rel_tol=args.rel_tol)


def _cmd_constants(args):
    from .constants import FORM_AGREEMENT_TOL, _pair_forms, _pattern_constants

    q, truncation = args.q, args.truncation
    grid = _pattern_grid(args)
    if args.forms and len(grid.axes) != 2:
        raise ValueError("--forms lists the closed forms of pairs")

    def blocks():
        for codes in grid.listing(BLOCK_ROWS):
            classes, keys = grid.classes(codes), grid.keys(codes)
            c1, c2 = _pattern_constants(q, classes, truncation)
            if not args.forms:
                yield {"pattern": keys, "c1": c1, "c2": c2,
                       "c2_method": "reduced"}
                continue
            # each pair's c2 row, then a row per closed form that applies
            tags, values, applies = zip(("reduced", c2, True),
                                        *_pair_forms(q, *classes, truncation))
            shown = np.column_stack(np.broadcast_arrays(*applies))
            per_pair = shown.sum(axis=1)
            yield {
                "pattern": np.repeat(keys, per_pair),
                "c1": np.repeat(c1, per_pair),
                "c2": np.column_stack(values)[shown],
                "c2_method": np.broadcast_to(tags, shown.shape)[shown],
            }

    return (_checked(blocks()),
            _product_meta(args, tolerance=FORM_AGREEMENT_TOL))


def _cmd_s0(args):
    """The class sums S0^k(q, v; H) of each v: brute sums over a
    SingularContext and analytic main terms (s0_main), both read from the
    one table of prime sums mod q."""
    from .constants import s0_main
    from .singular import SingularContext, s0_brute

    q, vs, method = args.q, list(args.v), args.method
    ctx = SingularContext(q, truncation=args.truncation)
    block = {"q": q, "v": vs, "H": args.H, "k": args.k, "method": method}
    if method != "analytic":
        sums = [s0_brute(ctx, v, args.H, k=args.k) for v in vs]
        block["brute"] = [s.value for s in sums]
        block["cutoff"] = [s.cutoff for s in sums]
    if method != "brute":
        block["analytic"] = [s0_main(q, v, args.H, args.truncation, k=args.k)
                             for v in vs]
    if method == "both":
        block["difference"] = [b - a for b, a in
                               zip(block["brute"], block["analytic"])]
    # the bound of the twin-prime product, not of A(q, chi)
    return [block], _product_meta(args, tail_bound=ctx.tail_bound)


def _cmd_compare(args):
    from .constants import _c2_table
    from .predict import _predictor
    from .sieve import SieveConfig, count_patterns, effective_workers

    cfg = SieveConfig(q=args.q, r=args.r, x=args.x, count=args.count,
                      threads=args.threads)
    # the pair constants, built before the sieve runs, so that a modulus
    # past the truncation is refused first
    _c2_table(args.q, args.truncation)
    table = count_patterns(cfg)
    # predictions are taken at the largest prime actually seen in by_count
    # mode so both columns describe the same window of integers
    x = args.x if args.x is not None else table.largest_prime
    meta = _product_meta(args, x=x, rel_tol=args.rel_tol,
                         threads=effective_workers(args.threads))
    # the integral is defined for pairs: an empty column for longer patterns
    ways = ("integral", "asymptotic") if args.r == 2 else ("asymptotic",)
    predictors = {way: _predictor(args.q, table.grid, [x], way,
                                  args.truncation, args.rel_tol)
                  for way in ways}
    empty = np.array("", dtype=object)  # beside it np.where keeps floats

    def blocks():
        for codes in table.listing(BLOCK_ROWS):
            actual = table.array[codes]
            got = {way: predict(codes)[0][:, 0]
                   for way, predict in predictors.items()}
            # an empty cell where the pattern was never counted
            rel_err = {way: np.where(actual > 0, v / np.maximum(actual, 1) - 1,
                                     empty) for way, v in got.items()}
            yield {"pattern": table.grid.keys(codes), "actual": actual,
                   "integral_prediction": got.get("integral", ""),
                   "asymptotic_prediction": got["asymptotic"],
                   "rel_err_integral": rel_err.get("integral", ""),
                   "rel_err_asymptotic": rel_err["asymptotic"]}

    return _checked(blocks()), meta


def _cmd_dump_characters(args):
    from .characters import character_group, check_table_budget

    q = args.q
    check_table_budget(q)
    group = character_group(q)

    def blocks():
        # the values of a block of rows at every n = 0..q-1 at a time
        for rows, values in group.value_blocks(np.arange(q)):
            yield {
                "name": group.names(rows),
                "modulus": [q] * len(values),
                "conductor": group.conductor[rows],
                "order": group.character_orders(rows),
                "parity": group.parity[rows],
                "values": [";".join("%.15g%+.15gj" % (z.real, z.imag)
                                    for z in row) for row in values.tolist()],
            }

    return blocks(), {"modulus": q}


def _cmd_dump_lvalues(args):
    from .lfun import build_ctable

    t = build_ctable(args.q, truncation=args.truncation)
    group = t.group

    def blocks():
        # the principal character, row 0, has no row
        for start in range(1, group.phi, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            l0, l1, a, c = (x[rows] for x in (t.l0, t.l1, t.a, t.c))
            yield {
                "name": group.names(rows),
                "conductor": group.conductor[rows], "parity": group.parity[rows],
                "l0_re": l0.real, "l0_im": l0.imag,
                "l1_re": l1.real, "l1_im": l1.imag,
                "a_re": a.real, "a_im": a.imag, "c_re": c.real, "c_im": c.imag,
                "tail": t.tail,
            }

    return blocks(), _product_meta(args)


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
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, metavar="FILE")
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="key=value defaults; explicit flags win")

    def truncation(sp):
        sp.add_argument("--truncation", type=_truncation_arg, default=None,
                        help="stop the Euler products at the prime bound P; "
                             "default: the full products")

    def threads(sp):
        sp.add_argument("--threads", type=int, default=1,
                        help="worker processes, at most one per core")

    def rel_tol(sp):
        sp.add_argument("--rel-tol", type=_rel_tol, default=1e-7)

    sp = sub.add_parser("count", help="exact pattern counts by sieve")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--skip", type=int, default=1)
    sp.add_argument("--x", type=_exact_int, default=None,
                    help="count windows whose first prime is <= X")
    sp.add_argument("--nth-prime", dest="count", type=_exact_int,
                    default=None, help="count the first N windows instead")
    threads(sp)
    sp.add_argument("--checkpoints", type=_int_list, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("predict", help="predicted pattern counts")
    sp.add_argument("--x", type=_int_list, required=True)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--method", choices=("integral", "asymptotic", "skip"),
                    default="integral")
    sp.add_argument("--classes", type=_classes_arg, default=None,
                    help="single pattern; default is all phi(q)^r patterns")
    sp.add_argument("--skip", type=int, default=2)
    truncation(sp)
    rel_tol(sp)
    common(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("constants", help="bias constants per pattern")
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--classes", type=_classes_arg, default=None,
                    help="single pattern; default is all phi(q)^r patterns")
    truncation(sp)
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
    truncation(sp)
    common(sp)
    sp.set_defaults(func=_cmd_s0)

    sp = sub.add_parser("compare", help="sieve counts next to predictions")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--x", type=_exact_int, default=None)
    sp.add_argument("--nth-prime", dest="count", type=_exact_int,
                    default=None)
    threads(sp)
    truncation(sp)
    rel_tol(sp)
    common(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("dump-characters", help="multiplicative character table")
    common(sp)
    sp.set_defaults(func=_cmd_dump_characters)

    sp = sub.add_parser("dump-lvalues", help="L-values and Euler factors")
    truncation(sp)
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
            flags.append(f"--{key.strip().replace('_', '-')}")
            if value.strip():  # a key with no value is a bare flag
                flags.append(value.strip())
    return flags


def _check_output(path: str) -> None:
    """Raise the OSError that writing FILE and FILE.manifest would meet
    after all the work: either is a directory, or their directory is
    missing or not writable.  Creates nothing."""
    folder = os.path.dirname(path) or "."
    for target in (path, path + ".manifest"):
        if os.path.isdir(target):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise OSError(code, os.strerror(code), folder)
    if not os.access(folder, os.W_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), folder)


def _column(value):
    """A block's column as a list of cells, or None for a shared value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value if isinstance(value, list) else None


def _csv(blocks, fh) -> int:
    """Write the header, then each block's rows through one template, and
    return the number of rows.  The bytes are those csv.DictWriter writes:
    no field needs quoting (numbers, words, keys such as 1;7;11), None is
    an empty cell and rows end in CRLF.  Shared fields before a block's
    first column are formatted once, into the separator between its rows.
    No block's text outlives its write."""
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
    try:
        if args.output:
            _check_output(args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        blocks, meta = args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the files this run creates, removed again if writing them fails
    created = [path for path in (args.output, args.output + ".manifest")
               if not os.path.exists(path)] if args.output else []
    try:
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
            nrows = (_json if args.format == "json" else _csv)(blocks, fh)
        wall = time.perf_counter() - start  # most blocks are made as written
        if args.output:
            with open(args.output + ".manifest", "w") as fh:
                fh.write(_manifest(argv, meta, wall, nrows))
    except BrokenPipeError:
        # the reader of stdout is gone: end as a tool stopped by SIGPIPE
        # does, and let the interpreter's last flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        for path in created:
            with suppress(OSError):
                os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
