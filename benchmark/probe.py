"""Child process of a traced run: one traced CLI job, or one layer probe.

    python3 benchmark/probe.py job OUT.json JOB_ID -- primebias-args...
    python3 benchmark/probe.py layer OUT.json LAYER SPEC_JSON

`job` runs `primebias.cli.main(args)` in this fresh interpreter, as the
console script would, with the library entry points the CLI calls wrapped
in spans from this file.  `layer` calls one layer's public functions on
the inputs in SPEC_JSON, each call inside a span.  Either way the spans
and work counters go to OUT.json; nothing inside `src/primebias` is
changed.  The runner (run.py) starts these with PYTHONPATH naming the
checkout's `src`.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

from tracing import Tracer

# names the CLI module imports from the library, and the layer each is in
CLI_CALLS = {
    "count_patterns": "sieve",
    "count_patterns_series": "sieve",
    "character_group": "characters",
    "build_ctable": "lfun",
    "conjecture_constants": "constants",
    "c2_pair_forms": "constants",
    "s0_main": "constants",
    "SingularContext": "singular",
    "s0_brute": "singular",
    "s0_moment_main": "singular",
    "integral_prediction": "predict",
    "asymptotic_prediction": "predict",
    "skip_prediction": "predict",
}


def run_job(tr: Tracer, argv: list[str]) -> int:
    with tr.span("import"):
        from primebias import cli
    for name, layer in CLI_CALLS.items():
        if hasattr(cli, name):
            setattr(cli, name, tr.wrap(f"{layer}.{name}", getattr(cli, name)))
    with tr.span("cli.main"):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            return exc.code if isinstance(exc.code, int) else 2


def _divisors(q: int) -> list[int]:
    return [d for d in range(1, q + 1) if q % d == 0]


def _classes(q: int) -> list[int]:
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def probe_arith(tr, spec):
    from primebias.arith import primes_upto
    with tr.span("arith.primes_upto"):
        primes = primes_upto(spec["truncation"])
    tr.counts["primes"] = len(primes)


def _drain(stream) -> tuple[int, int]:
    segments = primes = 0
    for seg in stream:
        segments += 1
        primes += len(seg)
    return segments, primes


def probe_sieve(tr, spec):
    from primebias.sieve import (SieveConfig, count_patterns,
                                 count_patterns_series, stream_primes)
    limit = spec["limit"]
    with tr.span("sieve.stream"):
        segments, primes = _drain(stream_primes(limit, threads=1))
    with tr.span("sieve.stream_t2"):
        _drain(stream_primes(limit, threads=2))
    count = dict(spec["count"])
    checkpoints = count.pop("checkpoints", None)
    cfg = SieveConfig(**count)
    with tr.span("sieve.count"):
        if checkpoints:
            table = count_patterns_series(cfg, checkpoints)[-1]
        else:
            table = count_patterns(cfg)
    tr.counts.update(segments=segments, primes=primes, integers=limit,
                     windows=table.total(), count_threads=cfg.threads)


def probe_characters(tr, spec):
    from primebias.characters import character_group
    divisors = _divisors(spec["q"])
    with tr.span("characters.group"):
        groups = [character_group(d) for d in divisors]
    evals = 0
    with tr.span("characters.eval"):
        for _ in range(spec["rounds"]):
            for d, group in zip(divisors, groups):
                for chi in group.characters():
                    for n in range(d):
                        chi(n)
                    evals += d
    tr.counts["evals"] = evals


def probe_lfun(tr, spec):
    from primebias.lfun import build_ctable
    with tr.span("lfun.build_ctable"):
        table = build_ctable(spec["q"], truncation=spec["truncation"])
    tr.counts["tail_bound"] = max(row.tail for row in table.rows)


def probe_constants(tr, spec):
    from primebias.constants import c2_pair, c2_pair_forms
    q, trunc = spec["q"], spec["truncation"]
    pairs = list(itertools.product(_classes(q), repeat=2))
    for name in ("constants.c2_cold", "constants.c2_warm"):
        with tr.span(name):
            for a, b in pairs:
                c2_pair(q, a, b, truncation=trunc)
    spread = 0.0
    with tr.span("constants.c2_pair_forms"):
        for a, b in pairs:
            forms = c2_pair_forms(q, a, b, truncation=trunc).values()
            spread = max(spread, max(forms) - min(forms))
    tr.counts.update(pairs=len(pairs), form_spread_max=spread)


def probe_singular(tr, spec):
    from primebias.singular import SingularContext, s0_brute
    with tr.span("singular.SingularContext"):
        ctx = SingularContext(spec["q"], truncation=spec["truncation"])
    with tr.span("singular.s0_brute"):
        for v in spec["v"]:
            s0_brute(ctx, v, spec["H"])


def probe_predict(tr, spec):
    from primebias.constants import c2_pair
    from primebias.predict import integral_prediction
    q, trunc = spec["q"], spec["truncation"]
    pairs = list(itertools.product(_classes(q), repeat=2))
    # the integrals are timed once the constants they need are cached
    with tr.span("predict.constants"):
        for a, b in pairs:
            c2_pair(q, a, b, truncation=trunc)
    err = 0.0
    n = 0
    with tr.span("predict.integral_prediction"):
        for a, b in pairs:
            for x in spec["x"]:
                row = integral_prediction(q, a, b, x, truncation=trunc)
                err = max(err, row.quadrature_error or 0.0)
                n += 1
    tr.counts.update(integrals=n, quadrature_error_max=err)


PROBES = {
    "arith": probe_arith,
    "sieve": probe_sieve,
    "characters": probe_characters,
    "lfun": probe_lfun,
    "constants": probe_constants,
    "singular": probe_singular,
    "predict": probe_predict,
}


def main(argv: list[str]) -> int:
    mode, out = argv[0], argv[1]
    if mode == "job":
        job_id = argv[2]
        if argv[3] != "--":
            raise SystemExit("usage: probe.py job OUT JOB_ID -- ARGS...")
        tr = Tracer(job_id)
        code = 1
        try:
            code = run_job(tr, argv[4:])
        finally:
            with open(out, "w") as fh:
                json.dump(dict(tr.dump(), exit_code=code), fh)
        return code
    if mode == "layer":
        layer, spec = argv[2], json.loads(argv[3])
        tr = Tracer(f"probe:{layer}")
        with tr.span("import"):
            import primebias  # noqa: F401
        PROBES[layer](tr, spec)
        with open(out, "w") as fh:
            json.dump(tr.dump(), fh)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
