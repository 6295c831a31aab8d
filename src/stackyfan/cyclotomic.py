"""Lowest terms for quotients of integer polynomials in one variable s,
given as coefficient lists indexed by exponent.

Every denominator the invariant formulas build is c * prod_d (1 - s^d), and
every reduced form of one is c * prod_d (1 - s^d)^{e_d} with exponents of
either sign; so every common factor is a product of cyclotomic polynomials
Phi_k(s).  They are divided out round by round.  A round tests each Phi_k
by folding the numerator modulo s^k - 1, and divides at once by the product
of those that divide, multiplying and dividing by binomials, each an
O(length) pass.  The folds run down the divisor lattice: the numerator is
folded in full only modulo s^d - 1 for the binomial exponents d of the
denominator, and each divisor k from the fold of a multiple.  So a round
costs one full-length fold per top d, plus one division of the numerator,
which gets shorter each round.  A pass over residue classes mod c runs as c
slices, or as length/c blocks when c^2 >= length, so it makes at most
sqrt(length) Python steps.  Any other denominator (only arbitrary input
such as 1 + 2s) is reduced by an integer primitive remainder sequence.
"""

from __future__ import annotations

import itertools
import math
import operator


def lowest_terms(a, b):
    """a/b in lowest terms, for lists with nonzero constant terms."""
    exps = _cyclotomic_exponents(b)
    if exps is None:
        g = _prs_gcd(a, b)
        return (_quotient(a, g), _quotient(b, g)) if len(g) > 1 else (a, b)
    return reduce_binomials(a, b[0], exps)


def reduce_binomials(a, c, exps, fit=int):
    """a / (c prod_d (1 - s^d)^{exps[d]}) in lowest terms; the denominator is
    built from exps - net, once fit has seen (and may refuse) its length."""
    a, net = _divide_gcd(a, exps)
    rest = {d: net.get(d, 0) - exps.get(d, 0) for d in net.keys() | exps}
    fit(1 + sum(-e * d for d, e in rest.items() if e < 0))
    return a, _apply([c], rest)


# bound on sum |e_d| before a denominator counts as not cyclotomic: the
# exponents of a non-cyclotomic polynomial grow geometrically with d
_MAX_FACTORS = 4096


def _cyclotomic_exponents(u):
    """{d: e_d} with u = u[0] * prod_d (1 - s^d)^{e_d}, exponents of either
    sign, as for a product of cyclotomic polynomials; None if u is not one.

    Greedy on the power series of u truncated after s^top: the lowest
    nonconstant term -e u[0] s^d fixes e_d.  The identity is exact once top
    reaches the degree of both sides cleared of negative exponents."""
    if u[::-1] != u and [-c for c in u[::-1]] != u:
        return None           # cyclotomic polynomials are (anti)palindromic
    top = len(u) - 1
    while True:
        p, exps, used = u + [0] * (top + 1 - len(u)), {}, 0
        for d in range(1, top + 1):
            if p[d]:
                e, r = divmod(-p[d], p[0])
                used += abs(e)
                if r or used > _MAX_FACTORS:
                    return None
                exps[d] = e
                for _ in range(e):
                    p = _div_binomial(p + [0] * d, d)
                for _ in range(-e):
                    p = _mul_binomial(p, d)[:top + 1]
        degree = max(sum(e * d for d, e in exps.items() if e > 0),
                     len(u) - 1 - sum(e * d for d, e in exps.items() if e < 0))
        if degree <= top:
            return exps
        top = degree


def _div_binomial(a, c):
    """a / (1 - s^c), exact: a prefix sum in each residue class mod c, run
    as c slices or, when c^2 >= the length, as blocks of c added to the
    block before them, whichever takes fewer passes."""
    q = a[:len(a) - c]
    if c * c < len(q):
        for r in range(c):
            q[r::c] = itertools.accumulate(q[r::c])
    else:
        for i in range(c, len(q), c):
            q[i:i + c] = map(operator.add, q[i:i + c], q[i - c:i])
    return q


def _mul_binomial(a, c):
    out = a + [0] * c
    out[c:] = map(operator.sub, out[c:], a)
    return out


def _divide_gcd(a, exps):
    """(a / g, {d: E_d}), no E_d zero, for g = prod_d (1 - s^d)^{E_d} =
    +-gcd(a, b) and b = prod_d (1 - s^d)^{exps[d]}.

    A round tests each live k: Phi_k divided a in every round so far, and
    b holds it more often than it was divided out.  Each is folded, in
    descending order, from the fold of its least multiple m already made
    (exact, as s^k - 1 divides s^m - 1) or of a top.  The round divides by
    Phi_k = +-prod_{d | k} (1 - s^d)^{mu(k/d)} for each k that passed,
    over the squarefree quotients k/d alone."""
    factors = {}              # n -> {prime: exponent}, for this call only
    tops = sorted(d for d, e in exps.items() if e > 0)
    need, net = {}, {}        # k -> times Phi_k is in b and not yet out
    for d, e in exps.items():
        for k in _divisors(d, factors):
            need[k] = need.get(k, 0) + e
    while True:
        folds, step = {}, {}  # m -> a mod s^m - 1; this round's exponents
        for k in sorted((k for k, m in need.items() if m > 0), reverse=True):
            m = min((n for n in folds if n % k == 0), default=None)
            if m is None:
                m = next(d for d in tops if d % k == 0)
                folds[m] = _fold(a, m)
            if m != k:
                folds[k] = _fold(folds[m], k)
            if _phi_divides(folds[k], k, factors):
                need[k] -= 1
                # mu(k/d) is (-1)^|S| at d = k / prod S, S a set of the
                # primes of k, and 0 at every other divisor d
                primes = list(_factor(k, factors))
                for r in range(len(primes) + 1):
                    for chosen in itertools.combinations(primes, r):
                        d = k // math.prod(chosen)
                        step[d] = step.get(d, 0) + (-1) ** r
            else:             # then Phi_k divides no quotient of a either
                need[k] = 0
        if not step:
            return a, {d: e for d, e in net.items() if e}
        a = _apply(a, step)
        for d, e in step.items():
            net[d] = net.get(d, 0) + e


def _fold(a, k):
    """a mod (s^k - 1): a sum over each residue class mod k, run as k
    slices or, when k^2 >= the length, as blocks of k added up."""
    if k * k < len(a):
        return [sum(a[r::k]) for r in range(k)]
    out = a[:k] + [0] * (k - len(a))
    for i in range(k, len(a), k):
        block = a[i:i + k]
        out[:len(block)] = map(operator.add, out, block)
    return out


def _phi_divides(f, k, factors):
    """Phi_k | f for f reduced mod s^k - 1.  prod_{p | k} (s^{k/p} - 1)
    vanishes at every k-th root of unity except the primitive ones, so the
    product with f is 0 mod s^k - 1 exactly when Phi_k divides f."""
    for p in _factor(k, factors):
        m = k // p
        f = list(map(operator.sub, f[-m:] + f[:-m], f))
    return not any(f)


def _apply(a, net):
    """a / prod_d (1 - s^d)^{net[d]}, known to be a polynomial: multiply
    first so that every division is exact."""
    for d, e in net.items():
        for _ in range(-e):
            a = _mul_binomial(a, d)
    for d, e in net.items():
        for _ in range(e):
            a = _div_binomial(a, d)
    return a


def _factor(n, factors):
    """{prime: exponent} of n, computed once per dict factors."""
    if n in factors:
        return factors[n]
    out, p = factors.setdefault(n, {}), 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n, factors):
    divs = [1]
    for p, e in _factor(n, factors).items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def _prs_gcd(a, b):
    """gcd of integer coefficient lists by a primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a if not b else [1]


def _primitive(p):
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_remainder(a, b):
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    low = [(j, c) for j, c in enumerate(b[:db]) if c]
    while len(r) > db:
        top = r.pop()
        if top:
            g = math.gcd(top, lead)
            if lead // g != 1:
                r = [x * (lead // g) for x in r]
            top //= g
            i = len(r) - db
            for j, c in low:
                r[i + j] -= top * c
    while r and not r[-1]:
        r.pop()
    return r


def _quotient(a, g):
    """a / g for a primitive divisor g of a in Z[s]."""
    a = list(a)
    dg, lead = len(g) - 1, g[-1]
    low = [(j, c) for j, c in enumerate(g[:dg]) if c]
    q = [0] * (len(a) - dg)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + dg] // lead
        if c:
            for j, gj in low:
                a[i + j] -= c * gj
    return q
