"""Independent checks of glcoeff's CLI output.

Nothing here imports glcoeff.  Reference values come from mpmath's own
zeta, psi, Stieltjes, gamma and Euler constants, assembled with a small
series ring of plain lists at REF_GUARD bits above the precision the
program was asked for; the rest are properties the method must have
(route agreement within the echoed tolerance, term counts, exact Weyl
weights).  Each check returns the correct bits of the values it compared
(-log2 of the relative error, capped at the requested precision) and
raises CheckError on the first violation.  `ctx.ref(key, compute)`
memoizes a reference value per working precision; `ctx.outputs` holds
the outputs of the current round by command line.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

import mpmath as mp

REF_GUARD = 128


class CheckError(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def correct_bits(value, ref, cap: int) -> float:
    """-log2 of the relative error of a printed value, capped at `cap`;
    a value must match its reference to half the requested precision,
    the tolerance the program itself applies to its routes."""
    err = abs(mp.mpf(value) - ref)
    scale = abs(ref) if ref != 0 else mp.mpf(1)
    bits = float(cap) if err == 0 else min(float(cap),
                                           float(-mp.log(err / scale, 2)))
    require(bits >= cap / 2, f"{value} is {bits:.1f} bits from {ref}")
    return bits


def partition_count(m: int) -> int:
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def parse_places(text: str) -> tuple[tuple[int, ...], bool]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(int(t) for t in toks if t != "inf"), "inf" in toks


# ---------------------------------------------------------------------------
# truncated power series as lists of m coefficients


def s_mul(a, b, m):
    return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(m)]


def s_exp(a, m):
    """exp of a series (a[0] arbitrary)."""
    out = [mp.exp(a[0])] + [mp.mpf(0)] * (m - 1)
    for k in range(1, m):
        out[k] = mp.fsum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def s_exp_linear(c0, rate, m):
    """Series of c0 * exp(rate * t)."""
    return [c0 * rate ** k / factorial(k) for k in range(m)]


def zeta_series(a: Fraction, m: int):
    """zeta(a + t), or (s - 1) zeta(s) at s = 1 + t when a = 1."""
    if a == 1:
        return [mp.mpf(1)] + [(-1) ** k * mp.stieltjes(k) / factorial(k)
                              for k in range(m - 1)]
    x = mp.mpf(a.numerator) / a.denominator
    return [mp.zeta(x, 1, k) / factorial(k) for k in range(m)]


def arch_series(a: Fraction, m: int):
    """pi^(-s/2) Gamma(s/2) at s = a + t, from the polygamma values."""
    x = mp.mpf(a.numerator) / a.denominator
    log_gamma = [mp.loggamma(x / 2)] + [mp.psi(k - 1, x / 2) / (factorial(k) * 2 ** k)
                                        for k in range(1, m)]
    return s_mul(s_exp(log_gamma, m), s_exp_linear(mp.pi ** (-x / 2),
                                                   -mp.log(mp.pi) / 2, m), m)


def tower_series(n: int, primes, arch: bool, center: Fraction, m: int):
    """Coefficients of (s - n) * prod_{j=1..n} xi(s - n + j), with the
    local factors at the places removed, at s = center + t."""
    out = [mp.mpf(1)] + [mp.mpf(0)] * (m - 1)
    if center != n:
        out = [mp.mpf(center.numerator) / center.denominator - n,
               mp.mpf(1)] + [mp.mpf(0)] * (m - 2)
    for j in range(1, n + 1):
        a = center - n + j
        out = s_mul(out, zeta_series(a, m), m)
        if not arch:
            out = s_mul(out, arch_series(a, m), m)
        x = mp.mpf(a.numerator) / a.denominator
        for p in primes:
            # 1 - p^(-s): the inverse of the local factor at p
            removed = [-v for v in s_exp_linear(mp.power(p, -x), -mp.log(p), m)]
            removed[0] += 1
            out = s_mul(out, removed, m)
    return out


def xi_value(s):
    return mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def minimal_a_tilde(d: int, r: int):
    """Volume-weighted coefficient of the minimal level: (sqrt(d) prod xi(j))^r."""
    prod = mp.mpf(1)
    for j in range(2, d + 1):
        prod *= xi_value(mp.mpf(j))
    return (mp.sqrt(d) * prod) ** r


def gl2_coefficient(d: int, primes, arch: bool):
    """Coefficient of the level (2, 1^(r-2)): (log z~_d^S)'(d) / sqrt(2d).

    For d = 1 and S empty this is (gamma/2 - log 2 - log(pi)/2)/sqrt(2);
    S = {2} adds log 2.  In general each j in 2..d adds (log xi)'(j), each
    prime p adds sum_j log p / (p^j - 1), and the real place subtracts
    sum_j (psi(j/2)/2 - log(pi)/2).
    """
    half_log_pi = mp.log(mp.pi) / 2
    total = mp.euler / 2 - mp.log(2) - half_log_pi
    for j in range(2, d + 1):
        total += mp.zeta(j, 1, 1) / mp.zeta(j) + mp.psi(0, mp.mpf(j) / 2) / 2 - half_log_pi
    for p in primes:
        total += sum(mp.log(p) / (mp.power(p, j) - 1) for j in range(1, d + 1))
    if arch:
        total -= sum(mp.psi(0, mp.mpf(j) / 2) / 2 - half_log_pi
                     for j in range(1, d + 1))
    return total / mp.sqrt(2 * d)


def ztilde_value(d: int, center: Fraction):
    """(s - d) * prod_{j=1..d} xi(s - d + j) at a center s != d."""
    shift = center - d
    out = mp.mpf(shift.numerator) / shift.denominator
    for j in range(1, d + 1):
        out *= xi_value(mp.mpf(shift.numerator) / shift.denominator + j)
    return out


# ---------------------------------------------------------------------------
# checks of single CLI outputs


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _doc(op) -> dict:
    require(op["rc"] == 0, f"{' '.join(op['argv'])}: exit code {op['rc']}: "
                           f"{op['err'].strip()[:200]}")
    doc = json.loads(op["out"])
    require(set(doc) == {"config", "query", "results", "diagnostics"},
            "output envelope")
    return doc


def _tolerance(doc):
    return mp.mpf(2) ** -doc["config"]["tolerance_exponent"]


def check_coefficient_rows(argv, doc, rows, ctx) -> list[float]:
    """Rows of `coeff` or `expansion`: one per partition of r, exact Weyl
    weights, routes within tolerance, and the closed forms of the minimal
    and the (2, 1^(r-2)) levels."""
    d, r = int(_arg(argv, "--d")), int(_arg(argv, "--r"))
    prec = int(_arg(argv, "--prec"))
    primes, arch = parse_places(_arg(argv, "--S", ""))
    tol = _tolerance(doc)
    require(len(rows) == partition_count(r), f"{len(rows)} rows for p({r})")
    bits = []
    with mp.workprec(prec + REF_GUARD):
        base = ctx.ref(("minimal", d, r), lambda: minimal_a_tilde(d, r))
        for row in rows:
            sizes = row["levi"]
            weight = Fraction(1, factorial(d * r))
            for size in sizes:
                weight *= factorial(size)
            require(Fraction(row["weyl_weight"]) == weight,
                    f"weyl weight {row['weyl_weight']} at {sizes}")
            gap = row.get("max_route_disagreement")
            if gap is not None:
                require(mp.mpf(gap) <= tol, f"route gap {gap} at {sizes}")
                require(mp.mpf(row["max_cancellation_residual"]) <= tol,
                        f"cancellation residual at {sizes}")
            if sizes == [d] * r:
                bits.append(correct_bits(row["a"], mp.mpf(1), prec))
                bits.append(correct_bits(row["a_tilde"], base, prec))
            elif sizes == [2 * d] + [d] * (r - 2):
                a_ref = ctx.ref(("gl2", d, primes, arch),
                             lambda: gl2_coefficient(d, primes, arch))
                bits.append(correct_bits(row["a"], a_ref, prec))
                bits.append(correct_bits(row["a_tilde"], base * a_ref, prec))
        require(sum(1 for row in rows if row["levi"] == [d] * r) == 1,
                "minimal level missing")
    return bits


def check_coeff(op, ctx) -> list[float]:
    doc = _doc(op)
    diag = doc["diagnostics"]
    require(diag["rows"] == len(doc["results"]), "row count")
    require(mp.mpf(diag["max_route_disagreement"]) <= _tolerance(doc),
            "route disagreement")
    return check_coefficient_rows(op["argv"], doc, doc["results"], ctx)


def check_expansion(op, ctx) -> list[float]:
    doc = _doc(op)
    diag = doc["diagnostics"]
    require(diag["terms"] == len(doc["results"]), "term count")
    require(mp.mpf(diag["max_route_disagreement"]) <= _tolerance(doc),
            "route disagreement")
    for row in doc["results"]:
        require(row["local_symbol"].startswith("J_L^G[L="), "local symbol")
    return check_coefficient_rows(op["argv"], doc, doc["results"], ctx)


def check_zeta(op, ctx) -> list[float]:
    """Tower jet coefficients against the mpmath series."""
    doc = _doc(op)
    argv = op["argv"]
    n, prec = int(_arg(argv, "--d", "1")), int(_arg(argv, "--prec"))
    center = Fraction(_arg(argv, "--at"))
    primes, arch = parse_places(_arg(argv, "--S", ""))
    kind = _arg(argv, "--eval")
    require(kind in ("ztilde", "ztilde-s"), f"no reference for {kind}")
    if kind == "ztilde":
        primes, arch = (), False
    rows = doc["results"]
    require(doc["diagnostics"]["low_order"] == 0 and
            [row["order"] for row in rows] == list(range(len(rows))),
            "tower jet must be analytic")
    with mp.workprec(prec + REF_GUARD):
        ref = ctx.ref(("tower", n, primes, arch, center, len(rows)),
                   lambda: tower_series(n, primes, arch, center, len(rows)))
        return [correct_bits(row["coefficient"], val, prec)
                for row, val in zip(rows, ref)]


def check_prolongation(op, ctx) -> list[float]:
    """The suite passes with every residual within the tolerance, and it
    covered every shape d*r <= n with r >= 2 and all 2^(r-1) parabolics
    of each."""
    doc = _doc(op)
    n = int(_arg(op["argv"], "--n"))
    require(doc["diagnostics"]["passed"] is True, "suite did not pass")
    tol = _tolerance(doc)
    shapes = [(d, r) for d in range(1, n + 1) for r in range(2, n // d + 1)]
    require([(row["d"], row["r"]) for row in doc["results"]] == shapes,
            "shapes covered")
    for row in doc["results"]:
        require(row["parabolics"] == 2 ** (row["r"] - 1), "parabolic count")
        require(mp.mpf(row["max_residual"]) <= tol,
                f"identity residual {row['max_residual']}")
    return []


def check_tower_value(op, ctx) -> list[float]:
    """An order-1 tower value at a continuation center."""
    doc = _doc(op)
    argv = op["argv"]
    d, prec = int(_arg(argv, "--d")), int(_arg(argv, "--prec"))
    center = Fraction(_arg(argv, "--at"))
    require(len(doc["results"]) == 1, "one coefficient")
    with mp.workprec(prec + REF_GUARD):
        return [correct_bits(doc["results"][0]["coefficient"],
                             ztilde_value(d, center), prec)]


def check_parallel_expansion(op, ctx) -> list[float]:
    """`--jobs 2` prints what `--jobs 1` printed for the same shape in
    this round, byte for byte apart from the echoed job count."""
    argv = list(op["argv"])
    argv[argv.index("--jobs") + 1] = "1"
    serial = ctx.outputs.get(tuple(argv))
    require(serial is not None and serial["rc"] == 0, "no serial run to compare")
    require(serial["out"].replace('"jobs": 1', '"jobs": 2', 1) == op["out"],
            "parallel expansion output differs from the serial one")
    return check_expansion(op, ctx)
