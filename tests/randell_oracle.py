"""Literal, self-contained transcription of Randell's homology formulas.

Deliberately independent of the package under test: subsets are walked with
itertools, gcd/lcm come straight from math, and every quotient is an exact
Fraction.  Used as the reference implementation in equivalence tests.
The torsion factors C(S) have a second, recursion-free route here too:
the prime powers of the exponents, factored by trial division.
"""

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm


def powerset(indices):
    idx = tuple(indices)
    return chain.from_iterable(combinations(idx, r) for r in range(len(idx) + 1))


def kappa_oracle(a, support):
    """Alternating subset sum giving rk H_{s-2} of the submanifold on `support`."""
    s = len(support)
    total = Fraction(0)
    for sub in powerset(support):
        prod = 1
        for i in sub:
            prod *= a[i]
        denom = lcm(*(a[i] for i in sub)) if sub else 1
        total += Fraction((-1) ** (s - len(sub)) * prod, denom)
    assert total.denominator == 1
    return int(total)


def c_oracle(a):
    """Randell's C(S) for every proper index subset S, by its recursion:
    gcd(a_i : i not in S) over the product of C on the proper subsets of S."""
    full = tuple(range(len(a)))
    c_of = {(): Fraction(gcd(*a))}
    for sub in powerset(full):
        if sub == () or len(sub) == len(full):
            continue
        rest = [a[i] for i in full if i not in sub]
        denom = Fraction(1)
        for smaller in powerset(sub):
            if len(smaller) < len(sub):
                denom *= c_of[smaller]
        c_of[sub] = Fraction(gcd(*rest)) / denom
    return c_of


def c_prime_power_oracle(a):
    """C(S) for every proper index subset S, read off the prime powers:
    the product of p over the p^t whose divisor set {i : p^t | a_i} is
    exactly the complement of S.  Exponents are factored by trial division.
    """
    full = tuple(range(len(a)))
    primes = set()
    for x in a:
        p = 2
        while p * p <= x:
            while x % p == 0:
                primes.add(p)
                x //= p
            p += 1
        if x > 1:
            primes.add(x)
    c_of = {sub: 1 for sub in powerset(full) if len(sub) < len(full)}
    for p in primes:
        q = p
        while True:
            divides = [i for i in full if a[i] % q == 0]
            if not divides:
                break
            c_of[tuple(i for i in full if i not in divides)] *= p
            q *= p
    return c_of


def torsion_oracle(a):
    """Cyclic torsion orders (d_1, ..., d_r) of the middle homology, 1s dropped."""
    n1 = len(a)
    full = tuple(range(n1))

    k_of = {}
    for sub in powerset(full):
        if (n1 - len(sub)) % 2 == 1:
            k_of[sub] = kappa_oracle(a, sub)
        else:
            k_of[sub] = 0

    c_of = c_oracle(a)
    r = max(k_of.values(), default=0)
    ds = []
    for j in range(1, r + 1):
        d = Fraction(1)
        for sub, k in k_of.items():
            if k >= j:
                d *= c_of[sub]
        assert d.denominator == 1
        ds.append(int(d))
    return tuple(d for d in ds if d != 1)


if __name__ == "__main__":
    import sys

    exponents = tuple(int(tok) for tok in sys.argv[1:])
    print("kappa:", kappa_oracle(exponents, range(len(exponents))))
    print("torsion:", torsion_oracle(exponents))
