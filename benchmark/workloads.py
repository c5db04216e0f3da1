"""The three workloads: their CLI jobs, their layer probes and their checks.

Every expected value below comes from somewhere other than the job that
is checked: published tables (kept in data/reference.json), classical
values of pi(x), identities evaluated here with the benchmark's own
arithmetic, or a sieve written here.  Nothing in this module imports
primebias.  See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "data", "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

DEFAULT_TRUNCATION = 20_000_000  # the CLI's default Euler-product bound
C2_FORM_TOL = 1e-8               # the agreement README promises for c2 forms
IDENTITY_TOL = 1e-8              # criterion 6's pair-sum and reversal tolerance
CLOSED_FORM_TOL = 1e-6           # criterion 5's tolerance
PREDICT_REL_TOL = 0.005          # criterion 3's tolerance


class Checks:
    """Counts checks attempted and keeps a line for every one that missed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    check: object                      # check(outputs, checks) for one repetition
    probes: dict[str, dict]            # layer -> spec for probe.py
    sieve_integers: int = 0            # range the count jobs sieve
    windows: int = 0                   # windows the count jobs count
    c2_jobs: tuple[str, ...] = ()      # jobs that emit c2 rows


# ------------------------------------------------------------ own arithmetic


def primes_to(n: int) -> np.ndarray:
    """Every prime <= n: an odd-only sieve independent of primebias."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones(n // 2 + 1, dtype=bool)   # index i stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = 2 * np.flatnonzero(odd).astype(np.int64) + 1
    return np.concatenate([[2], primes[primes <= n]]).astype(np.int64)


def totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def von_mangoldt(n: int) -> float:
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return 0.0


def reduced_classes(q: int) -> list[int]:
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ checks


def check_count_table(rows, checks, want: dict[str, int], windows: int):
    got = {r["classes"]: int(r["count"]) for r in rows}
    checks.expect("count rows", set(got) == set(want),
                  f"{len(got)} patterns, expected {len(want)}")
    for key, n in want.items():
        checks.expect(f"count {key}", got.get(key) == n,
                      f"{got.get(key)} != published {n}")
    checks.expect("count windows", sum(got.values()) == windows,
                  f"{sum(got.values())} != {windows}")


def scan_series(path: str, spot: set[str]):
    """Totals per checkpoint, spot-checked counts and a digest of every row.

    The digest is sha256 over the sorted 'limit,classes,count' lines, so
    it pins every count and ignores row order.
    """
    totals: dict[int, int] = {}
    picked: dict[tuple[int, str], int] = {}
    lines = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        il, ic, in_ = (header.index(k) for k in ("limit", "classes", "count"))
        for line in fh:
            parts = line.rstrip("\n").split(",")
            limit, classes, n = int(parts[il]), parts[ic], int(parts[in_])
            totals[limit] = totals.get(limit, 0) + n
            if classes in spot:
                picked[(limit, classes)] = n
            lines.append(f"{limit},{classes},{n}\n")
    lines.sort()
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    return totals, picked, digest


def window_counts(q: int, r: int, x: int, patterns: list[str]) -> dict[str, int]:
    """Counts of r-windows of consecutive primes starting in (q, x], own sieve."""
    primes = primes_to(x + 20_000)
    primes = primes[primes > q]
    n = int(np.searchsorted(primes, x, side="right"))
    if n + r - 1 > len(primes):
        raise RuntimeError("reference sieve too short for the windows")
    res = primes % q
    code = np.zeros(n, dtype=np.int64)
    for j in range(r):
        code = code * q + res[j : j + n]
    values, counts = np.unique(code, return_counts=True)
    table = dict(zip(values.tolist(), counts.tolist()))
    out = {}
    for pat in patterns:
        c = 0
        for a in pat.split(";"):
            c = c * q + int(a) % q
        out[pat] = table.get(c, 0)
    return out


def c2_table(rows) -> dict[tuple[int, int], dict]:
    out = {}
    for r in rows:
        a, b = (int(t) for t in r["pattern"].split(";"))
        out[(a, b)] = {"c1": float(r["c1"]), "c2": float(r["c2"])}
    return out


def check_c2_identities(table, checks, q: int):
    """c1, the pair-sum closed form and reversal symmetry for every pattern."""
    classes = reduced_classes(q)
    phi = len(classes)
    checks.expect(f"constants q={q} rows", len(table) == phi * phi,
                  f"{len(table)} rows")
    for (a, b), row in sorted(table.items()):
        want_c1 = 0.5 - (phi / 2 if a == b else 0.0)
        checks.expect(f"c1 q={q} ({a},{b})", abs(row["c1"] - want_c1) <= 1e-12,
                      f"{row['c1']} != {want_c1}")
        mirror = table.get(((-b - 1) % q + 1, (-a - 1) % q + 1))
        checks.expect(f"reversal q={q} ({a},{b})",
                      mirror is not None
                      and abs(row["c2"] - mirror["c2"]) <= IDENTITY_TOL)
        if a != b and (b, a) in table:
            qd = q // math.gcd(b - a, q)
            want = math.log(2 * math.pi) - phi * von_mangoldt(qd) / totient(qd)
            got = row["c2"] + table[(b, a)]["c2"]
            checks.expect(f"pair sum q={q} ({a},{b})",
                          abs(got - want) <= IDENTITY_TOL, f"{got} != {want}")


def a12(truncation: int) -> float:
    """A(12, chi) for the odd character of conductor 3, by its Euler product.

    chi(p) = -1 for p = 2 mod 3 and 1 for p = 1 mod 3, so only p = 2 mod 3
    contribute: the p = 2 factor is (1 - chi(2)/2) = 3/2 and every p >= 5
    gives 1 - 4/(p-1)^2.
    """
    p = primes_to(truncation)
    p = p[(p % 3 == 2) & (p >= 5)].astype(float)
    return 1.5 * float(np.prod(1.0 - 4.0 / (p - 1.0) ** 2))


def check_q12_closed_forms(table, checks, truncation: int):
    """Criterion 5's eight q=12 closed forms."""
    t = math.pi / math.sqrt(3) * a12(truncation)
    log2pi = math.log(2 * math.pi)
    for (a, b), want in {
        (1, 5): math.log(2 * math.pi / 9) / 2 + t,
        (1, 7): math.log(math.pi / 8) / 2,
        (1, 11): log2pi / 2 - t,
        (5, 1): math.log(2 * math.pi / 9) / 2 - t,
        (5, 7): log2pi / 2 + t,
        (7, 1): math.log(math.pi / 8) / 2,
        (7, 5): log2pi / 2 - t,
        (11, 1): log2pi / 2 + t,
    }.items():
        got = table.get((a, b), {}).get("c2", math.nan)
        checks.expect(f"closed form q=12 ({a},{b})",
                      abs(got - want) <= CLOSED_FORM_TOL, f"{got} != {want}")


def check_forms(rows, table, checks, q: int, pair: tuple[int, int]):
    """Every c2 form of one pattern agrees, and with the full table."""
    key = f"{pair[0]};{pair[1]}"
    forms = {r["c2_method"]: float(r["c2"]) for r in rows[1:]
             if r["pattern"] == key}
    checks.expect(f"forms q={q} {key} present",
                  {"direct", "character", "reduced"} <= set(forms),
                  f"got {sorted(forms)}")
    ref = float(rows[0]["c2"]) if rows else math.nan
    for tag, val in sorted(forms.items()):
        checks.expect(f"form {tag} q={q} {key}",
                      abs(val - ref) <= C2_FORM_TOL * max(1.0, abs(ref)),
                      f"{val} vs {ref}")
    want = table.get(pair, {}).get("c2", math.nan)
    checks.expect(f"forms q={q} {key} vs table",
                  abs(ref - want) <= 1e-12 * max(1.0, abs(want)),
                  f"{ref} vs {want}")


def check_lvalues(rows, checks, q: int):
    """C(q, chi) = 0 for every even chi; parities split as for prime q."""
    phi = totient(q)
    checks.expect(f"lvalues q={q} rows", len(rows) == phi - 1, f"{len(rows)}")
    even = [r for r in rows if int(r["parity"]) == 1]
    odd = [r for r in rows if int(r["parity"]) == -1]
    checks.expect(f"lvalues q={q} parities",
                  len(even) == phi // 2 - 1 and len(odd) == phi // 2,
                  f"{len(even)} even, {len(odd)} odd")
    for r in even:
        checks.expect(f"C=0 for even {r['name']}",
                      float(r["c_re"]) == 0.0 and float(r["c_im"]) == 0.0,
                      f"{r['c_re']}{r['c_im']}j")


def check_predict(rows, checks, xs):
    """Criterion 3's published q=12 entries at the job's x, to 0.5%."""
    got = {(r["pattern"], int(r["x"])): float(r["value"]) for r in rows}
    for q, a, b, x, want in REFERENCE["integral_table"]:
        if q != 12 or x not in xs:
            continue
        val = got.get((f"{a};{b}", x), math.nan)
        checks.expect(f"predict q=12 ({a},{b}) x={x:.0e}",
                      abs(val / want - 1) <= PREDICT_REL_TOL, f"{val} vs {want}")


def check_s0(rows, checks, vs, H: float):
    """Criterion 7's band |brute - analytic| <= 2 H^-0.4."""
    checks.expect("s0 rows", sorted(int(r["v"]) for r in rows) == sorted(vs))
    band = 2 * H ** -0.4
    for r in rows:
        gap = abs(float(r["brute"]) - float(r["analytic"]))
        checks.expect(f"s0 v={r['v']} H={H:g}", gap <= band, f"{gap} > {band}")


# --------------------------------------------------------------- workloads


def count_sieve(smoke: bool, seed: int) -> Workload:
    if smoke:
        q, n, threads, ref, limit = 3, 1_000_000, 1, "q3_first_1e6", 16_449_854
    else:
        q, n, threads, ref, limit = 10, 100_000_000, 2, "q10_first_1e8", 2_133_424_279
    argv = ("count", "--q", str(q), "--r", "2", "--nth-prime", str(n),
            "--threads", str(threads))
    want = REFERENCE[ref]

    def check(outputs, checks):
        check_count_table(read_rows(outputs["count"]), checks, want, n)

    return Workload(
        "count_sieve", [Job("count", argv)], check,
        probes=_probes(limit, {"q": q, "r": 2, "count": n, "threads": threads},
                       smoke),
        sieve_integers=limit, windows=n)


def count_windows(smoke: bool, seed: int) -> Workload:
    q, r = 210, 3
    if smoke:
        x, checkpoints = 2_000_000, [1_000_000]
    else:
        x, checkpoints = 200_000_000, [1_000_000, 10_000_000, 100_000_000]
    argv = ("count", "--q", str(q), "--r", str(r), "--x", str(x),
            "--checkpoints", ",".join(map(str, checkpoints)))
    limits = checkpoints + [x]
    sieved = x + 4096 * r  # the count sieves past x so the last windows close
    pi_q = len(primes_to(q))
    # the seed picks which patterns are compared with an independent count
    classes = reduced_classes(q)
    rng = random.Random(seed)
    spot = sorted({";".join(str(rng.choice(classes)) for _ in range(r))
                   for _ in range(64)})
    spot_limits = [c for c in limits if c <= 10_000_000]
    key = " ".join(argv)

    def check(outputs, checks):
        totals, picked, digest = scan_series(outputs["count"], set(spot))
        for lim in limits:
            want = REFERENCE["pi"][str(lim)] - pi_q
            checks.expect(f"windows to {lim}", totals.get(lim) == want,
                          f"{totals.get(lim)} != pi(x) - pi({q}) = {want}")
        for lim in spot_limits:
            ref = window_counts(q, r, lim, spot)
            for pat in spot:
                got = picked.get((lim, pat))
                checks.expect(f"spot {pat} at {lim}", got == ref[pat],
                              f"{got} != {ref[pat]}")
        checks.expect("series checksum",
                      digest == REFERENCE["series_sha256"].get(key), digest)

    return Workload(
        "count_windows", [Job("count", argv)], check,
        probes=_probes(sieved,
                       {"q": q, "r": r, "x": x, "checkpoints": checkpoints},
                       smoke),
        sieve_integers=sieved, windows=REFERENCE["pi"][str(x)] - pi_q)


def constants_tables(smoke: bool, seed: int) -> Workload:
    if smoke:
        trunc, q_big, q_l, xs, H = 200_000, 30, 13, [10**9, 10**12], 1000.0
        extra = ("--truncation", str(trunc))
    else:
        trunc, q_big, q_l, H = DEFAULT_TRUNCATION, 60, 97, 10_000.0
        xs = [10**9, 10**10, 10**11, 10**12]
        extra = ()
    vs = [0, 1, 2, 3, 4]
    # the seed picks the off-diagonal q=12 pattern that gets every c2 form
    pair = tuple(random.Random(seed).sample(reduced_classes(12), 2))
    jobs = [
        Job("constants_12", ("constants", "--q", "12") + extra),
        Job("constants_big", ("constants", "--q", str(q_big)) + extra),
        Job("forms", ("constants", "--q", "12", "--classes",
                      f"{pair[0]},{pair[1]}", "--forms") + extra),
        Job("lvalues", ("dump-lvalues", "--q", str(q_l)) + extra),
        Job("predict", ("predict", "--q", "12", "--x", ",".join(map(str, xs)),
                        "--method", "integral") + extra),
        Job("s0", ("s0", "--q", "5", "--v", ",".join(map(str, vs)),
                   "--H", f"{H:g}", "--method", "both") + extra),
    ]

    def check(outputs, checks):
        t12 = c2_table(read_rows(outputs["constants_12"]))
        check_c2_identities(t12, checks, 12)
        check_q12_closed_forms(t12, checks, trunc)
        check_forms(read_rows(outputs["forms"]), t12, checks, 12, pair)
        check_c2_identities(c2_table(read_rows(outputs["constants_big"])),
                            checks, q_big)
        check_lvalues(read_rows(outputs["lvalues"]), checks, q_l)
        check_predict(read_rows(outputs["predict"]), checks, xs)
        check_s0(read_rows(outputs["s0"]), checks, vs, H)

    probes = _probes(trunc, {"q": 12, "r": 2, "x": trunc}, smoke,
                     q=q_big, trunc=trunc)
    return Workload("constants_tables", jobs, check, probes,
                    c2_jobs=("constants_12", "constants_big", "forms"))


def _probes(limit: int, count: dict, smoke: bool, q: int = 12,
            trunc: int | None = None) -> dict[str, dict]:
    """Layer probe inputs: the workload's own where it uses the layer.

    The count workloads never reach characters, lfun, constants, singular
    or predict, so those probes run on the q=12 inputs of the
    constants_tables workload; they are there to be reported, and a change
    to the sieve should leave them unchanged.
    """
    if trunc is None:
        trunc = 200_000 if smoke else DEFAULT_TRUNCATION
    return {
        "arith": {"truncation": trunc},
        "sieve": {"limit": limit, "count": count},
        "characters": {"q": q, "rounds": 5 if smoke else 200},
        "lfun": {"q": q, "truncation": trunc},
        "constants": {"q": q, "truncation": trunc},
        "singular": {"q": 5, "truncation": trunc // 2, "v": [0, 1, 2, 3, 4],
                     "H": 1000.0 if smoke else 10_000.0},
        "predict": {"q": 12, "truncation": trunc,
                    "x": [10**9, 10**12] if smoke
                    else [10**9, 10**10, 10**11, 10**12]},
    }


WORKLOADS = {
    "count_sieve": count_sieve,
    "count_windows": count_windows,
    "constants_tables": constants_tables,
}
