"""High-precision reference values for the closed forms.

Solves the front equation and evaluates the integrated profile Psi with
mpmath at 30 significant digits, for the flux-feedback source and for the
closed forms without a source and with the exponential source.  It imports
nothing from stefansim, so it is an independent witness for the float code
in stefansim.similarity.

The flux-feedback table never uses Dawson's function.  It evaluates the
equation in its unscaled form:

    LHS(x) = sqrt(pi) x e^{x^2} (A J(x) + (1 + delta) erf(x))
             / (Ste (1 + delta + A E(x))) = 1 + delta/(p+1),
    Psi(eta) = 1 + delta/(p+1) - C (A J(eta) + (1 + delta) erf(eta)),
    C = sqrt(pi) lam e^{lam^2} / (Ste (1 + delta + A E(lam))),
    E(x) = integral_0^x e^{z^2} dz,
    J(x) = erf(x) E(x) - I(x),   I(x) = integral_0^x e^{z^2} erf(z) dz.

mp.quad integrates E and K(x) = integral_0^x e^{z^2} erfc(z) dz = E(x) - I(x),
and J is taken as K(x) - erfc(x) E(x): the same expression with
erf = 1 - erfc.  Written as erf(x) E(x) - I(x), two terms of size
e^{x^2} / (2x) cancel, and at x = 30 they are 10^390 times J.  Keeping 30 digits through that subtraction needs
420-digit arithmetic, and mpmath then spends about two minutes on one J.
After the rewrite the cancellation happens in the algebra, not in the
arithmetic.

The closed-form table solves the two elementary equations

    no source:    (sqrt(pi)/Ste) x erf(x) e^{x^2} = 1 + delta/(p+1),
    exponential:  (sqrt(pi)/Ste) x erf(x) (e^{x^2} + 1)
                  - (1 - e^{-x^2})/Ste = 1 + delta/(p+1),

with Psi(eta) = 1 + delta/(p+1) - (sqrt(pi)/Ste) lam e^{lam^2} erf(eta)
without a source, and for the exponential source
Psi(eta) = 1 + delta/(p+1) - (sqrt(pi)/Ste) lam (e^{lam^2} + 1) erf(eta)
+ (1 - e^{-eta^2})/Ste.  The float code evaluates the same formulas, so
these rows check its rounding and its root solve, not the derivation.

The custom-beta table takes beta(eta) = (1 + eta) e^{-eta^2} / 2, which has
no closed form in the solver, through the general similarity-source
formulas:

    (sqrt(pi)/Ste) x erf(x) e^{x^2}
        + (2 sqrt(pi)/Ste) integral_0^x e^{xi^2} erf(xi) beta(xi) dxi
        = 1 + delta/(p+1),
    Psi(eta) = 1 + delta/(p+1) - (sqrt(pi)/Ste) erf(eta) B
               + (2 sqrt(pi)/Ste) (erf(eta) Ibe(eta) - Ibee(eta)),
    B = lam e^{lam^2} + 2 Ibe(lam),
    Ibe(x) = integral_0^x beta e^{xi^2} dxi,
    Ibee(x) = integral_0^x beta e^{xi^2} erf(xi) dxi,

with mp.quad for the integrals and mp.findroot for lam.  These are the
formulas the float code evaluates with its adaptive quadrature, so the rows
check its rounding, its quadrature and its root solve, not the derivation.

The Dawson-integral table holds F(x) = integral_0^x D(z) dz on a ladder of
x from 1e-8 to 1e4, from the closed form F(x) = (x^2/2) 2F2(1, 1; 3/2, 2;
-x^2) (mp.hyp2f2), which the float code (a knot table, Gauss-Legendre
panels and a large-x series) never uses.  It also holds gamma/4 + ln(2)/2,
the limit of F(x) - ln(x)/2, and that difference at x = 1e4 with the
series' 13 terms added back, which must agree with it.

Usage, from the root of a checkout:

    python tools/mp_reference.py           # write the tables under tests/data
    python tools/mp_reference.py --check   # recompute and diff against them

--check exits 1 when a recomputed value differs from a file in any of
the stored digits beyond the last two.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import mpmath as mp

DIGITS = 30
STORED_DIGITS = 25
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUT = DATA / "reference.json"
CLOSED_OUT = DATA / "reference_closed_forms.json"
CUSTOM_OUT = DATA / "reference_custom_beta.json"
DAWSON_OUT = DATA / "reference_dawson_integral.json"

# Psi is tabulated at these fractions of lam.
ETA_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)

# (Ste, delta, p, A): the 16 corners of the acceptance grid (Ste in
# [0.1, 5], delta in [0.1, 5], p in [0.5, 3], A in [0.5, 2]), the unit
# case, three cases at Ste = 1e2 and 1e4, where lam is 3.7, 30.7 and 11.7,
# and three past the large-x series' X0 = 10: lam is 40.1 at A = 1e3,
# 272 at Ste = 1e6 and 22699 at Ste = 1e10.
CASES = [
    *itertools.product((0.1, 5.0), (0.1, 5.0), (0.5, 3.0), (0.5, 2.0)),
    (1.0, 1.0, 1.0, 1.0),
    (1e2, 1.0, 1.0, 1.0),
    (1e4, 1.0, 1.0, 1.0),
    (1e4, 1e3, 20.0, 1.0),
    (1e4, 1.0, 1.0, 1e3),
    (1e6, 1.0, 1.0, 1.0),
    (1e10, 1.0, 1.0, 1.0),
]

# x of the Dawson-integral table: 1e-8 to 1e4, with both sides of the knot
# 2.5 = 320/128 and of the series' start X0 = 10 (each side the adjacent double).
F_LADDER = [
    1e-8, 1e-4, 0.01, 0.3, 1.0,
    2.4999999999999996, 2.5, 2.5000000000000004,
    5.0, 9.999999999999998, 10.0, 10.000000000000002,
    30.0, 100.0, 1e3, 1e4,
]
# The series of F(x) - ln(x)/2 - gamma/4 - ln(2)/2 is
# -sum_k (2k-1)!! / (2^{k+2} k x^{2k}); it is added back at LIMIT_X.
LIMIT_X = 1e4
SERIES_TERMS = 13

# (Ste, delta, p) of the closed-form and custom-beta tables: the 8 corners
# of the acceptance grid, the unit case, and two cases at Ste = 1e306 and
# 1e307, where lam^2 is about 701 and 703, just below the overflow of
# e^{lam^2} in a double at 709.78.
CLOSED_CASES = [
    *itertools.product((0.1, 5.0), (0.1, 5.0), (0.5, 3.0)),
    (1.0, 1.0, 1.0),
    (1e306, 1.0, 1.0),
    (1e307, 1.0, 1.0),
]


def _split(x):
    """Quadrature breakpoints for [0, x]: e^{z^2} varies on the scale 1/x near x."""
    pts = [x - mp.mpf(k) / x for k in (64, 32, 16, 8, 4, 2, 1)]
    return [mp.mpf(0)] + [q for q in pts if q > 0] + [x]


def front_integrals(x):
    """(J(x), E(x)) with J = erf(x) E(x) - I(x), evaluated as K(x) - erfc(x) E(x)."""
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0), mp.mpf(0)
    pts = _split(x)
    e = mp.quad(lambda z: mp.exp(z * z), pts)
    k = mp.quad(lambda z: mp.exp(z * z) * mp.erfc(z), pts)
    return k - mp.erfc(x) * e, e


def lhs(x, ste, delta, a):
    j, e = front_integrals(x)
    return (
        mp.sqrt(mp.pi) * x * mp.exp(x * x) * (a * j + (1 + delta) * mp.erf(x))
        / (ste * (1 + delta + a * e))
    )


def bracketed_root(f):
    """Root of increasing f, bracketed by doubling and halving from [0.5, 1].

    Bisection narrows the bracket to a relative width of 1e-6 before the
    Anderson solve: near lam = 26.5 the e^{x^2} equations change by a factor
    e^{53} per unit of x, and Anderson from [16, 32] does not converge.
    """
    lo, hi = mp.mpf("0.5"), mp.mpf(1)
    while f(hi) < 0:
        lo, hi = hi, 2 * hi
    while f(lo) > 0:
        lo, hi = lo / 2, lo
    while hi - lo > mp.mpf("1e-6") * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return mp.findroot(f, (lo, hi), solver="anderson")


def solve_lam(ste, delta, p, a):
    target = 1 + delta / (p + 1)
    return bracketed_root(lambda x: lhs(x, ste, delta, a) - target)


def psi(etas, lam, ste, delta, p, a):
    """Psi at each eta in etas."""
    _, e_lam = front_integrals(lam)
    c = mp.sqrt(mp.pi) * lam * mp.exp(lam * lam) / (ste * (1 + delta + a * e_lam))
    return [
        1 + delta / (p + 1) - c * (a * front_integrals(eta)[0] + (1 + delta) * mp.erf(eta))
        for eta in etas
    ]


def reference_case(ste, delta, p, a):
    mp.mp.dps = DIGITS
    ste, delta, p, a = (mp.mpf(v) for v in (ste, delta, p, a))
    lam = solve_lam(ste, delta, p, a)
    # Each eta is rounded to a double first, so the float code is asked
    # for Psi at exactly the tabulated point.
    etas = [float(lam * q) for q in ETA_FRACTIONS]
    return {
        "ste": float(ste),
        "delta": float(delta),
        "p": float(p),
        "feedback": float(a),
        "lam": mp.nstr(lam, STORED_DIGITS),
        "eta": etas,
        "psi": [
            mp.nstr(v, STORED_DIGITS) for v in psi(map(mp.mpf, etas), lam, ste, delta, p, a)
        ],
    }


def closed_lhs(source, x, ste):
    """Left-hand side of the no-source or exponential front equation."""
    if source == "none":
        return mp.sqrt(mp.pi) * x * mp.erf(x) * mp.exp(x * x) / ste
    return (mp.sqrt(mp.pi) * x * mp.erf(x) * (mp.exp(x * x) + 1) + mp.expm1(-x * x)) / ste


def closed_psi(source, eta, lam, ste, target):
    """Psi(eta) of the no-source or exponential closed form."""
    if source == "none":
        return target - mp.sqrt(mp.pi) * lam * mp.exp(lam * lam) * mp.erf(eta) / ste
    front = mp.sqrt(mp.pi) * lam * (mp.exp(lam * lam) + 1) * mp.erf(eta)
    return target - (front + mp.expm1(-eta * eta)) / ste


def closed_reference_case(source, ste, delta, p):
    mp.mp.dps = DIGITS
    ste, delta, p = (mp.mpf(v) for v in (ste, delta, p))
    target = 1 + delta / (p + 1)
    lam = bracketed_root(lambda x: closed_lhs(source, x, ste) - target)
    etas = [float(lam * q) for q in ETA_FRACTIONS]
    return {
        "source": source,
        "ste": float(ste),
        "delta": float(delta),
        "p": float(p),
        "lam": mp.nstr(lam, STORED_DIGITS),
        "eta": etas,
        "psi": [
            mp.nstr(closed_psi(source, mp.mpf(eta), lam, ste, target), STORED_DIGITS)
            for eta in etas
        ],
    }


def custom_beta(eta):
    """The custom source of the custom-beta table."""
    return (1 + eta) * mp.exp(-eta * eta) / 2


def custom_integrals(x):
    """(Ibe(x), Ibee(x)) for the custom beta."""
    ibe = mp.quad(lambda z: custom_beta(z) * mp.exp(z * z), [0, x])
    ibee = mp.quad(lambda z: custom_beta(z) * mp.exp(z * z) * mp.erf(z), [0, x])
    return ibe, ibee


def custom_reference_case(ste, delta, p):
    mp.mp.dps = DIGITS
    ste, delta, p = (mp.mpf(v) for v in (ste, delta, p))
    target = 1 + delta / (p + 1)
    root_pi = mp.sqrt(mp.pi)

    def lhs_minus_target(x):
        head = root_pi * x * mp.erf(x) * mp.exp(x * x) / ste
        return head + 2 * root_pi * custom_integrals(x)[1] / ste - target

    lam = bracketed_root(lhs_minus_target)
    b_coeff = lam * mp.exp(lam * lam) + 2 * custom_integrals(lam)[0]

    def psi_at(eta):
        ibe, ibee = custom_integrals(eta)
        er = mp.erf(eta)
        return target - root_pi * er * b_coeff / ste + 2 * root_pi * (er * ibe - ibee) / ste

    etas = [float(lam * q) for q in ETA_FRACTIONS]
    return {
        "source": "custom",
        "ste": float(ste),
        "delta": float(delta),
        "p": float(p),
        "lam": mp.nstr(lam, STORED_DIGITS),
        "eta": etas,
        "psi": [mp.nstr(psi_at(mp.mpf(eta)), STORED_DIGITS) for eta in etas],
    }


def dawson_integral(x):
    """F(x) = (x^2/2) 2F2(1, 1; 3/2, 2; -x^2), the integral of Dawson's function."""
    x = mp.mpf(x)
    return x * x / 2 * mp.hyp2f2(1, 1, mp.mpf(3) / 2, 2, -x * x)


def build_dawson():
    mp.mp.dps = DIGITS
    big = mp.mpf(LIMIT_X)
    series = mp.fsum(
        mp.fac2(2 * k - 1) / (2 ** (k + 2) * k * big ** (2 * k))
        for k in range(1, SERIES_TERMS + 1)
    )
    return {
        "source": "Dawson integral F",
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "cases": [{"x": x, "F": mp.nstr(dawson_integral(x), STORED_DIGITS)} for x in F_LADDER],
        "limit": mp.nstr(mp.euler / 4 + mp.log(2) / 2, STORED_DIGITS),
        "limit_x": LIMIT_X,
        "limit_at_x": mp.nstr(dawson_integral(big) - mp.log(big) / 2 + series, STORED_DIGITS),
    }


def build():
    return {
        "source": "flux-feedback",
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "cases": [reference_case(*case) for case in CASES],
    }


def build_closed():
    return {
        "source": "no source and exponential closed forms",
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "cases": [
            closed_reference_case(source, *case)
            for source in ("none", "exponential")
            for case in CLOSED_CASES
        ],
    }


def build_custom():
    return {
        "source": "custom beta (1 + eta) e^{-eta^2} / 2",
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "cases": [custom_reference_case(*case) for case in CLOSED_CASES],
    }


TABLES = (
    (OUT, build),
    (CLOSED_OUT, build_closed),
    (CUSTOM_OUT, build_custom),
    (DAWSON_OUT, build_dawson),
)


def _differs(old: str, new: str) -> bool:
    old, new = mp.mpf(old), mp.mpf(new)
    scale = max(abs(old), abs(new), mp.mpf(1))
    return abs(old - new) > mp.mpf(10) ** (2 - STORED_DIGITS) * scale


def _key(case):
    return tuple(case.get(name) for name in ("source", "ste", "delta", "p", "feedback", "x"))


def _values(case):
    """(name, stored digits) of each value of one case."""
    if "x" in case:
        return [(f"F({case['x']!r})", case["F"])]
    return [("lam", case["lam"]), *((f"psi({eta!r})", v) for eta, v in zip(case["eta"], case["psi"]))]


def check(table, fresh) -> int:
    bad = 0
    if len(fresh["cases"]) != len(table["cases"]):
        print(f"case count: file {len(table['cases'])}, recomputed {len(fresh['cases'])}")
        return 1
    for old, new in zip(table["cases"], fresh["cases"]):
        key = _key(old)
        if key != _key(new) or old.get("eta") != new.get("eta"):
            print(f"{key}: parameters or eta points differ from the recomputed case")
            bad += 1
            continue
        for (name, o), (_, n) in zip(_values(old), _values(new)):
            if _differs(o, n):
                print(f"{key} {name}: file {o}, recomputed {n}")
                bad += 1
    for name in ("limit", "limit_at_x"):
        if name in table and _differs(table[name], fresh[name]):
            print(f"{name}: file {table[name]}, recomputed {fresh[name]}")
            bad += 1
    print(f"{len(table['cases'])} cases checked, {bad} differences")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="recompute and compare with the committed tables"
    )
    args = parser.parse_args(argv)
    status = 0
    for path, build_table in TABLES:
        if args.check:
            print(f"{path.name}:")
            status |= check(json.loads(path.read_text()), build_table())
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(build_table(), indent=1) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
