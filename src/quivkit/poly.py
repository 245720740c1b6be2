"""Univariate polynomials over Q and F_p: their roots in the field.

A polynomial is a list of field values, lowest degree first, with no trailing
zeros; the zero polynomial is [].  Everything is exact.  Roots over F_p are
those of gcd(f, t^p - t), split by equal-degree splitting (Cantor and
Zassenhaus 1981).  Rational roots are roots mod a small prime, lifted p-adically
(Hensel) far enough to be read off as integers and then verified exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactlin import GF, QQ, _is_prime


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _sub(f, a, b):
    n = max(len(a), len(b))
    a = a + [f.zero] * (n - len(a))
    b = b + [f.zero] * (n - len(b))
    return _trim([f.sub(x, y) for x, y in zip(a, b)])


def _mul(f, a, b):
    if not a or not b:
        return []
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return _trim(out)


def _divmod(f, a, b):
    """Quotient and remainder of a by a nonzero b."""
    db = len(b) - 1
    inv = f.inv(b[-1])
    rem = list(a)
    quo = [f.zero] * max(len(a) - db, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = f.mul(rem[i + db], inv)
        quo[i] = c
        if c:
            for k in range(db + 1):
                rem[i + k] = f.sub(rem[i + k], f.mul(c, b[k]))
    return _trim(quo), _trim(rem[:db])


def _monic(f, a):
    inv = f.inv(a[-1])
    return [f.mul(inv, x) for x in a]


def _gcd(f, a, b):
    """Monic greatest common divisor (the zero polynomial for gcd(0, 0))."""
    while b:
        a, b = b, _divmod(f, a, b)[1]
    return _monic(f, a) if a else a


def _derivative(f, a):
    return _trim([f.mul(f.of(i), a[i]) for i in range(1, len(a))])


def _powmod(f, base, e, mod):
    """base^e mod `mod`, by square-and-multiply."""
    out = [f.one]
    base = _divmod(f, base, mod)[1]
    while e:
        if e & 1:
            out = _divmod(f, _mul(f, out, base), mod)[1]
        e >>= 1
        if e:
            base = _divmod(f, _mul(f, base, base), mod)[1]
    return out


def _value(a, x):
    """a(x) by Horner's rule, in whatever arithmetic a and x carry."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _distinct_roots_mod_p(f, a):
    """The distinct roots in F_p of a nonzero polynomial a (f = F_p)."""
    p = f.char
    if p == 2:
        return [r for r in (0, 1) if not _value(a, r) % 2]
    t = [0, 1]
    todo = [_gcd(f, a, _sub(f, _powmod(f, t, p, a), t))]
    roots = []
    # For any two roots r != s some shift c in F_p puts exactly one of them in
    # gcd(h, (t + c)^((p-1)/2) - 1), so the loop ends before c reaches p.
    c = 0
    while todo:
        rest = []
        for h in todo:
            if len(h) == 2:
                roots.append(f.neg(h[0]))
            elif len(h) > 2:
                g = _gcd(f, h, _sub(f, _powmod(f, [c, 1], (p - 1) // 2, h), [1]))
                rest += [g, _divmod(f, h, g)[0]] if 1 < len(g) < len(h) else [h]
        todo = rest
        c += 1
    return sorted(roots)


def _split_mod_p(f, a):
    roots = _distinct_roots_mod_p(f, a)
    # a splits exactly when dividing out its roots, with their
    # multiplicities, leaves a constant
    for r in roots:
        while True:
            quo, rem = _divmod(f, a, [f.neg(r), f.one])
            if rem:
                break
            a = quo
    return roots if len(a) == 1 else None


def _split_rational(a):
    sqfree = _divmod(QQ, a, _gcd(QQ, a, _derivative(QQ, a)))[0]
    den = lcm(*(c.denominator for c in sqfree))
    ints = [int(c * den) for c in sqfree]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    d = len(ints) - 1
    lead = ints[-1]
    # monic with integer coefficients: its roots are lead times those of a,
    # and its rational roots are integers
    mon = [c * lead ** (d - 1 - i) for i, c in enumerate(ints[:d])] + [1]
    dmon = [i * c for i, c in enumerate(mon)][1:]
    bound = 1 + max(abs(c) for c in mon[:d])  # Cauchy: |root| < bound
    p = 3
    while not (_is_prime(p)
               and len(_gcd(GF(p), _trim([c % p for c in mon]),
                            _trim([c % p for c in dmon]))) == 1):
        p += 2
    roots = []
    for r in _distinct_roots_mod_p(GF(p), [c % p for c in mon]):
        # Newton steps double the p-adic precision of the simple root r
        q = p
        while q <= 2 * bound:
            q *= q
            r = (r - _value(mon, r) * pow(_value(dmon, r), -1, q)) % q
        y = r if 2 * r <= q else r - q
        if _value(mon, y) == 0:
            roots.append(QQ.of(Fraction(y, lead)))
    return sorted(roots) if len(roots) == d else None


def roots_if_split(f, a):
    """Sorted distinct roots of a nonzero polynomial a over the field f, or
    None unless a is a product of linear factors over f."""
    if f.char == 0:
        return _split_rational(a)
    return _split_mod_p(f, a)
