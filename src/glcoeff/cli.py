"""Command line front end.

Subcommands compute coefficient tables, the assembled formal expansion,
zeta tower jets, volume tables, and the inducing-pair enumeration, and
run the named verification suites.  Output is JSON by default, with
every number rendered as a decimal string at the configured precision
so runs are reproducible byte for byte; --format table prints an
aligned summary instead.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import product

import mpmath as mp

from .coefficients import (expansion, prolongation_identity_residuals,
                           unit_expansion_residual)
from .gmfamily import SmoothGerm, c, draw_generic_direction, tilde_c
from .numeric import (DEFAULT_PREC, MIN_PREC, decimal_str, parse_exact,
                      tolerance, tolerance_exponent, working)
from .orbits import (LeviDatum, Partition, enumerate_inducing_pairs, induce,
                     induced_type_oracle, partitions, search_inducing_pairs)
from .rootdata import (base_profile, covolume, enumerate_parabolics,
                       gram_determinant, group_profile, simple_data)
from .zeta import (NumberFieldData, PlaceSet, ProviderError, volumes, xi_jet,
                   z_s_local_jet, ztilde_jet, ztilde_s_jet)

Q = Fraction


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility envelope echoed verbatim into every output."""

    precision_bits: int = DEFAULT_PREC
    seed: int = 0
    field: str = "Q"

    def as_dict(self) -> dict:
        return {**asdict(self),
                "tolerance_exponent": tolerance_exponent(self.precision_bits)}


def _config_from_args(args) -> RunConfig:
    if args.prec < MIN_PREC:
        raise ValueError(f"--prec must be at least {MIN_PREC} bits, "
                         f"got {args.prec}")
    return RunConfig(
        precision_bits=args.prec,
        seed=args.seed,
        field=args.field,
    )


def _load_field(config: RunConfig) -> NumberFieldData | None:
    if config.field == "Q":
        return None
    return NumberFieldData.from_file(config.field)


def _resolve_shape(args) -> tuple[int, int]:
    d, r, n = args.d, args.r, args.n
    for flag, value in (("--d", d), ("--r", r), ("--n", n)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if d is not None and r is not None:
        if n is not None and n != d * r:
            raise ValueError(f"--n {n} contradicts --d {d} --r {r}")
        return d, r
    if n is None:
        raise ValueError("give --d and --r, or --n (optionally with one of them)")
    if d is not None:
        if n % d:
            raise ValueError(f"--n {n} is not a multiple of --d {d}")
        return d, n // d
    if r is not None:
        if n % r:
            raise ValueError(f"--n {n} is not a multiple of --r {r}")
        return n // r, r
    return 1, n


# ---------------------------------------------------------------------------
# serialization


def _fmt(x):
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, mp.mpf):
        return decimal_str(x)
    if isinstance(x, Partition):
        return list(x.parts)
    if isinstance(x, (tuple, list)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _fmt(v) for k, v in x.items()}
    return str(x)


def _payload(config: RunConfig, query: dict, results: list,
             diagnostics: dict) -> dict:
    return {
        "config": config.as_dict(),
        "query": _fmt(query),
        "results": _fmt(results),
        "diagnostics": _fmt(diagnostics),
    }


def _cell(value) -> str:
    text = str(value)
    if len(text) <= 30:
        return text
    # shorten long decimals without losing the exponent
    if text.count("e") == 1:
        mantissa, exponent = text.split("e")
        if len(mantissa) > 22:
            mantissa = mantissa[:20] + ".."
        return mantissa + "e" + exponent
    return text[:27] + ".."


def _emit(payload: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    rows = payload["results"]
    if rows:
        cols = list(rows[0].keys())
        table = [[_cell(row.get(col, "")) for col in cols] for row in rows]
        widths = [max(len(col), *(len(t[i]) for t in table))
                  for i, col in enumerate(cols)]
        out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)) + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for line in table:
            out.write("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n")
    for key, value in payload["diagnostics"].items():
        out.write(f"{key}: {_cell(value)}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_coeff(args, config: RunConfig) -> int:
    d, r = _resolve_shape(args)
    places = PlaceSet.parse(args.S)
    field = _load_field(config)
    query = {"command": "coeff", "d": d, "r": r, "S": places.label()}
    exp = expansion(d, r, places, field, config.seed)
    rows = []
    worst_gap = mp.mpf(0)
    worst_resid = mp.mpf(0)
    for term in exp.terms:
        res = term.coefficient
        gap = res.diagnostics["max_disagreement"]
        resid = max(res.diagnostics["residuals"].values())
        worst_gap = max(worst_gap, gap)
        worst_resid = max(worst_resid, resid)
        rows.append({
            "levi": list(res.levi.parts),
            "orbits": [list(o.parts) for o in res.levi.orbits],
            "induced_orbit": res.orbit,
            "a": res.a_value,
            "a_tilde": res.a_tilde_value,
            "weyl_weight": res.weyl_weight,
            "class_size": term.class_size,
            "max_route_disagreement": gap,
            "max_cancellation_residual": resid,
        })
    diagnostics = {
        "rows": len(rows),
        "max_route_disagreement": worst_gap,
        "max_cancellation_residual": worst_resid,
    }
    _emit(_payload(config, query, rows, diagnostics), args.format)
    return 0


def cmd_expansion(args, config: RunConfig) -> int:
    d, r = _resolve_shape(args)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    places = PlaceSet.parse(args.S)
    field = _load_field(config)
    query = {"command": "expansion", "d": d, "r": r, "S": places.label(),
             "jobs": args.jobs}
    exp = expansion(d, r, places, field, config.seed, jobs=args.jobs)
    rows = []
    worst_gap = mp.mpf(0)
    for term in exp.terms:
        coeff = term.coefficient
        worst_gap = max(worst_gap, coeff.diagnostics["max_disagreement"])
        rows.append({
            "local_symbol": term.local_symbol,
            "levi": list(coeff.levi.parts),
            "orbits": [list(o.parts) for o in coeff.levi.orbits],
            "a": coeff.a_value,
            "a_tilde": coeff.a_tilde_value,
            "weyl_weight": coeff.weyl_weight,
            "class_size": term.class_size,
            "standard_levi_count": term.standard_levi_count,
        })
    diagnostics = {
        "orbit": exp.orbit,
        "terms": len(rows),
        "field": exp.field_label,
        "max_route_disagreement": worst_gap,
    }
    _emit(_payload(config, query, rows, diagnostics), args.format)
    return 0


def cmd_zeta(args, config: RunConfig) -> int:
    center = parse_exact(args.at)
    places = PlaceSet.parse(args.S)
    field = _load_field(config)
    d = args.d if args.d is not None else 1
    if d < 1:
        raise ValueError(f"--d must be at least 1, got {d}")
    order = args.order
    if order < 1:
        raise ValueError(f"--order must be at least 1, got {order}")
    query = {"command": "zeta", "eval": args.eval, "at": center, "d": d,
             "S": places.label(), "order": order}
    if args.eval == "xi":
        jet = xi_jet(center, order, field)
    elif args.eval == "ztilde":
        jet = ztilde_jet(d, center, order, field)
    elif args.eval == "z-local":
        jet = z_s_local_jet(d, places, center, order, field)
    else:
        jet = ztilde_s_jet(d, places, center, order, field)
    rows = [{"order": k, "coefficient": coeff}
            for k, coeff in zip(range(jet.low, jet.low + len(jet.coeffs)),
                                jet.coeffs)]
    diagnostics = {"low_order": jet.low, "coefficients": len(rows)}
    _emit(_payload(config, query, rows, diagnostics), args.format)
    return 0


def cmd_volumes(args, config: RunConfig) -> int:
    d, r = _resolve_shape(args)
    field = _load_field(config)
    query = {"command": "volumes", "d": d, "r": r}
    rows = []
    for P in enumerate_parabolics(d, r):
        table = volumes(P, field)
        rows.append({"parts": list(P.parts), **table})
    _emit(_payload(config, query, rows, {"rows": len(rows)}), args.format)
    return 0


def cmd_orbits(args, config: RunConfig) -> int:
    d, r = _resolve_shape(args)
    query = {"command": "orbits", "d": d, "r": r}
    rows = []
    for pair in enumerate_inducing_pairs(d, r):
        rows.append({
            "levi": list(pair.levi.parts),
            "orbits": [list(o.parts) for o in pair.levi.orbits],
            "induced_orbit": induce(pair.levi),
            "weyl_weight": pair.weyl_weight,
            "class_size": pair.class_size,
            "standard_levi_count": pair.standard_levi_count,
        })
    diagnostics = {"classes": len(rows),
                   "target_orbit": Partition.block_regular(d, r)}
    _emit(_payload(config, query, rows, diagnostics), args.format)
    return 0


# ---------------------------------------------------------------------------
# verification suites


# the place sets of the suites that compute coefficients
SUITE_PLACE_SETS = ("", "2", "2,3,5")


def _shapes_up_to(n_max: int, min_r: int = 1):
    for d in range(1, n_max + 1):
        for r in range(min_r, n_max // d + 1):
            yield d, r


def _suite_covolumes(args, config: RunConfig, field) -> tuple[list, dict]:
    n_max = args.n if args.n is not None else 8
    rows = []
    exact_ok = True
    for m in range(2, 13):
        det = gram_determinant(simple_data(base_profile(1, m)).coroots)
        ok = det == m
        exact_ok = exact_ok and ok
        rows.append({"check": f"coroot_gram_det_gl{m}", "value": det,
                     "expected": m, "exact": ok})
    worst = mp.mpf(0)
    for d, r in _shapes_up_to(n_max, min_r=2):
        local_worst = mp.mpf(0)
        for P in enumerate_parabolics(d, r):
            data = simple_data(base_profile(d, r), P)
            prod = covolume(data.coroots) * covolume(data.coweights)
            local_worst = max(local_worst, abs(prod - 1))
        worst = max(worst, local_worst)
        rows.append({"check": f"dual_product_d{d}_r{r}",
                     "max_product_residual": local_worst,
                     "parabolics": len(enumerate_parabolics(d, r))})
    passed = exact_ok and worst < tolerance()
    return rows, {"max_product_residual": worst, "passed": passed}


def _random_germ(rng: random.Random, n: int) -> SmoothGerm:
    def atom():
        form = tuple(Q(rng.randint(-4, 4)) for _ in range(n))
        kind = rng.randrange(3)
        if kind == 0:
            return SmoothGerm.exp_pairing(form)
        if kind == 1:
            return SmoothGerm.linear(form, shift=rng.randint(1, 4))
        return SmoothGerm.power(form, rng.randint(0, 2))

    germ = atom() * atom()
    return germ + atom().scaled(Q(rng.randint(-3, 3), rng.randint(1, 3)))


def _suite_cp(args, config: RunConfig, field) -> tuple[list, dict]:
    n_max = args.n if args.n is not None else 6
    count = 20
    rows = []
    worst = mp.mpf(0)
    for d, r in _shapes_up_to(n_max, min_r=2):
        level = group_profile(d, r)
        direction = draw_generic_direction(d, (r,), config.seed)
        rng = random.Random(f"cp:{config.seed}:{d}:{r}")
        local = mp.mpf(0)
        for _ in range(count):
            germ = _random_germ(rng, d * r)
            upper = tilde_c(germ, level, direction)
            lower = c(germ, level, direction)
            gap = abs(upper.value - lower.value) / max(mp.mpf(1),
                                                       abs(upper.value))
            local = max(local, gap)
        worst = max(worst, local)
        rows.append({"d": d, "r": r, "germs": count, "max_gap": local})
    return rows, {"max_gap": worst, "passed": worst < tolerance()}


def _suite_prolongement(args, config: RunConfig, field) -> tuple[list, dict]:
    n_max = args.n if args.n is not None else 6
    rows = []
    worst = mp.mpf(0)
    for d, r in _shapes_up_to(n_max, min_r=2):
        local = mp.mpf(0)
        count = 0
        for P in enumerate_parabolics(d, r):
            residuals = prolongation_identity_residuals(
                P, field, config.seed, samples=10)
            local = max(local, max(residuals))
            count += 1
        worst = max(worst, local)
        rows.append({"d": d, "r": r, "parabolics": count,
                     "max_residual": local})
    return rows, {"max_residual": worst, "passed": worst < tolerance()}


def _suite_induction(args, config: RunConfig, field) -> tuple[list, dict]:
    n_max = args.n if args.n is not None else 8
    checked = 0
    failures = []
    for total in range(1, n_max + 1):
        for parts in partitions(total):
            orbit_menu = [tuple(partitions(p)) for p in parts]
            for choice in product(*orbit_menu):
                levi = LeviDatum(parts, tuple(Partition(o) for o in choice))
                checked += 1
                if induce(levi) != induced_type_oracle(levi):
                    failures.append({"levi": list(parts),
                                     "orbits": [list(o) for o in choice]})
    block_checked = 0
    for d, r in _shapes_up_to(10):
        levi = LeviDatum((d,) * r, (Partition((1,) * d),) * r)
        block_checked += 1
        if induced_type_oracle(levi) != Partition.block_regular(d, r):
            failures.append({"levi": list(levi.parts), "block_regular": [d, r]})
    # the closed-form inducing pairs against the exhaustive search
    pair_shapes = pair_classes = 0
    for d, r in _shapes_up_to(n_max):
        closed = [replace(p, profile=None) for p in enumerate_inducing_pairs(d, r)]
        pair_shapes += 1
        pair_classes += len(closed)
        if closed != search_inducing_pairs(d, r):
            failures.append({"inducing_pairs": [d, r]})
    rows = [{"levi_orbit_pairs": checked,
             "block_regular_elements": block_checked,
             "inducing_pair_shapes": pair_shapes,
             "inducing_pair_classes": pair_classes,
             "failures": len(failures)}]
    return rows, {"failures": failures, "passed": not failures}


def _suite_routes(args, config: RunConfig, field) -> tuple[list, dict]:
    n_max = args.n if args.n is not None else 6
    rows = []
    worst_gap = mp.mpf(0)
    worst_resid = mp.mpf(0)
    for d, r in _shapes_up_to(n_max):
        local_gap = mp.mpf(0)
        local_resid = mp.mpf(0)
        levels = 0
        for label in SUITE_PLACE_SETS:
            for term in expansion(d, r, PlaceSet.parse(label), field,
                                  config.seed).terms:
                diag = term.coefficient.diagnostics
                levels += 1
                local_gap = max(local_gap, diag["max_disagreement"])
                local_resid = max(local_resid, max(diag["residuals"].values()))
        worst_gap = max(worst_gap, local_gap)
        worst_resid = max(worst_resid, local_resid)
        rows.append({"d": d, "r": r, "evaluations": levels,
                     "max_disagreement": local_gap,
                     "max_residual": local_resid})
    passed = worst_gap < tolerance() and worst_resid <= tolerance()
    return rows, {"max_disagreement": worst_gap,
                  "max_residual": worst_resid, "passed": passed}


def _suite_unit_expansion(args, config: RunConfig, field) -> tuple[list, dict]:
    n_max = args.n if args.n is not None else 6
    rows = []
    worst = mp.mpf(0)
    for d, r in _shapes_up_to(n_max):
        local = max(unit_expansion_residual(d, r, PlaceSet.parse(label),
                                            field, config.seed)
                    for label in SUITE_PLACE_SETS)
        worst = max(worst, local)
        rows.append({"d": d, "r": r, "place_sets": len(SUITE_PLACE_SETS),
                     "max_gap": local})
    return rows, {"max_gap": worst, "passed": worst < tolerance()}


SUITES = {
    "cp-identity": _suite_cp,
    "covolumes": _suite_covolumes,
    "prolongement4": _suite_prolongement,
    "induction-oracle": _suite_induction,
    "routes": _suite_routes,
    "unit-expansion": _suite_unit_expansion,
}


def cmd_verify(args, config: RunConfig) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    field = _load_field(config)
    query = {"command": "verify", "suite": args.suite, "n": args.n}
    rows, diagnostics = SUITES[args.suite](args, config, field)
    _emit(_payload(config, query, rows, diagnostics), args.format)
    return 0 if diagnostics["passed"] else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sp) -> None:
    sp.add_argument("--prec", type=int, default=DEFAULT_PREC,
                    help=f"binary precision, at least {MIN_PREC} "
                         f"(default {DEFAULT_PREC})")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the generic direction draws")
    sp.add_argument("--field", default="Q",
                    help='"Q" or a path to a field data JSON file')
    sp.add_argument("--format", choices=("json", "table"), default="json")


def _add_shape(sp) -> None:
    sp.add_argument("--d", type=int, default=None,
                    help="block size of the orbit (r^d)")
    sp.add_argument("--r", type=int, default=None,
                    help="number of blocks of the orbit (r^d)")
    sp.add_argument("--n", type=int, default=None,
                    help="ambient rank, n = d*r (default d=1 when alone)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glcoeff",
        description="global coefficients of the fine expansion at "
                    "block-regular nilpotent orbits of GL(n)")
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="coefficient table for one orbit")
    _add_shape(coeff)
    coeff.add_argument("--S", default="", help="places, e.g. 2,3 or 2,inf")
    _add_common(coeff)

    exp = sub.add_parser("expansion", help="full formal expansion")
    _add_shape(exp)
    exp.add_argument("--S", default="")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per group size")
    _add_common(exp)

    zeta = sub.add_parser("zeta", help="zeta and tower jets")
    zeta.add_argument("--eval", required=True,
                      choices=("xi", "ztilde", "z-local", "ztilde-s"))
    zeta.add_argument("--at", required=True,
                      help="expansion center, an exact rational like 2 or 3/2")
    zeta.add_argument("--d", type=int, default=None, help="tower degree")
    zeta.add_argument("--S", default="")
    zeta.add_argument("--order", type=int, default=4,
                      help="jet length: orders below it are printed")
    _add_common(zeta)

    vol = sub.add_parser("volumes", help="volume table per parabolic")
    _add_shape(vol)
    _add_common(vol)

    orb = sub.add_parser("orbits", help="inducing-pair enumeration")
    _add_shape(orb)
    _add_common(orb)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--n", type=int, default=None,
                     help="rank bound for the suite")
    _add_common(ver)

    return parser


COMMANDS = {
    "coeff": cmd_coeff,
    "expansion": cmd_expansion,
    "zeta": cmd_zeta,
    "volumes": cmd_volumes,
    "orbits": cmd_orbits,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        with working(config.precision_bits):
            return COMMANDS[args.command](args, config)
    except (ProviderError, ValueError, OSError, ArithmeticError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
