"""Sparse multivariate polynomials over Z in the eight variables
t1, t2, t3, t4, u1, u2, u3, u4, with degrevlex term order.

A polynomial is a dict mapping exponent 8-tuples to nonzero integer
coefficients.  The module stays deliberately small: just enough ring
arithmetic plus division with remainder to support strong Groebner
bases over the integers.
"""

from __future__ import annotations

VARS = ("t1", "t2", "t3", "t4", "u1", "u2", "u3", "u4")
NVARS = len(VARS)

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]

ONE_MONO: Monomial = (0,) * NVARS


def variable(name: str) -> Poly:
    e = [0] * NVARS
    e[VARS.index(name)] = 1
    return {tuple(e): 1}


def constant(c: int) -> Poly:
    return {ONE_MONO: c} if c else {}


def mono_key(m: Monomial):
    """Sort key realizing degrevlex: higher key = larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def scale(p: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: k * c for m, c in p.items()}


def term_mul(p: Poly, m: Monomial, k: int) -> Poly:
    """Multiply by the single term k * m."""
    if k == 0:
        return {}
    return {mono_mul(m0, m): k * c for m0, c in p.items()}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def evaluate(p: Poly, point) -> int:
    """The value of ``p`` at ``point``, the values of the leading
    variables in order (t1, t2, ...).  Variables past ``point`` must not
    occur in ``p``."""
    total = 0
    for m, c in p.items():
        for x, e in zip(point, m):
            if e:
                c *= x**e
        total += c
    return total


def leading_term(p: Poly) -> tuple[Monomial, int]:
    if not p:
        raise ValueError("zero polynomial has no leading term")
    # The degrevlex maximum: highest degree, then the smallest exponent
    # tuple read from the last variable, i.e. the largest mono_key.
    m = min(p, key=lambda m: (-sum(m), m[::-1]))
    return m, p[m]


def normal_form(p: Poly, basis) -> Poly:
    """Remainder of ``p`` on division by ``basis`` over Z.

    A term c * m is rewritten using any basis element g with LM(g) | m,
    replacing c by its symmetric remainder modulo LC(g).  With ``basis``
    a strong Groebner basis the result is zero exactly for ideal
    members.
    """
    leads = [(leading_term(g), g) for g in basis if g]
    p = dict(p)
    out: Poly = {}
    while p:
        m, c = leading_term(p)
        reduced = False
        for (lm, lc), g in leads:
            if mono_divides(lm, m):
                q = c // lc
                # Pull the remainder toward zero: |c - q*lc| <= |lc| / 2.
                r = c - q * lc
                if 2 * abs(r) > abs(lc):
                    q += 1 if lc > 0 else -1
                if q:
                    p = sub(p, term_mul(g, mono_div(m, lm), q))
                    reduced = True
                    break
        if not reduced:
            out[m] = c
            del p[m]
    return out

