"""Exact ground fields: the rationals and prime fields F_p.

Field elements are plain Python values (Fraction for Q, int in range(p)
for F_p), and a Field object bundles their arithmetic: no floats.  The
engine keeps matrices and vectors as lifts, tables of ints over one
denominator, (ints, d), in the canonical form the hook `normalize` gives
a table of summed ints: over Q one gcd leaves d > 0 and no prime dividing
d and every int, over F_p one pass mod p leaves the nonzero residues over
d = 1.  Over Q a table that is already canonical is returned as it is,
with no copy, so the table a kernel hands over must be its own and is
not written to afterwards; over F_p the residues are always a new dict.
At the boundary, `integral` lifts a table of field elements and
`from_integral` lowers a lift back to one.
"""

from fractions import Fraction
from math import gcd, lcm


class Field:
    """Common interface; instantiate QQ or GF(p)."""

    def __call__(self, num, den=1):
        raise NotImplementedError

    def is_zero(self, x):
        return x == self.zero


class RationalField(Field):
    name = "Q"
    types = (int, Fraction)     # the values accepted as elements

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __call__(self, num, den=1):
        return Fraction(num, den)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / x

    def integral(self, entries):
        """(ints, d) with entries[k] == ints[k] / d, d the lcm of the
        denominators; when every entry is an integer, d = 1."""
        d = lcm(*{v.denominator for v in entries.values()})
        if d == 1:
            return {k: v.numerator for k, v in entries.items()}, 1
        return {k: v.numerator * (d // v.denominator)
                for k, v in entries.items()}, d

    def from_integral(self, ints, d):
        """A new dict of the Fractions x / d of the nonzero ints x."""
        return {k: Fraction(x, d) for k, x in ints.items() if x}

    def normalize(self, ints, d):
        """The canonical lift of the ints x / d (d a nonzero int): the nonzero
        ints and d, divided by their gcd, with d > 0.  A lift that is
        already canonical comes back as it is, ints itself: a caller hands
        over a dict it owns and does not write to it afterwards."""
        g = 1 if d == 1 else gcd(d, *ints.values()) * (1 if d > 0 else -1)
        if g == 1:
            if 0 not in ints.values():
                return ints, d
            return {k: x for k, x in ints.items() if x}, d
        return {k: x // g for k, x in ints.items() if x}, d // g

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin with the first 13 prime bases decides primality exactly
# below MR_BOUND (Sorenson & Webster, Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(p):
    """Deterministic primality test for 0 <= p < MR_BOUND."""
    if p >= MR_BOUND:
        raise ValueError("modulus %d is too large to certify as prime "
                         "(the limit is %d)" % (p, MR_BOUND))
    if p < 2:
        return False
    for a in MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    types = (int,)

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.name = str(p)
        self.zero = 0
        self.one = 1 % p

    def __call__(self, num, den=1):
        x = num % self.p
        if den % self.p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        if den != 1:
            x = x * pow(den % self.p, -1, self.p) % self.p
        return x

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

    def integral(self, entries):
        """(entries, 1): residues in range(p) already are ints."""
        return entries, 1

    def normalize(self, ints, d):
        """The canonical lift of the ints x / d: a new dict of their nonzero
        residues mod p, over 1.  A sum of products is reduced once here,
        not after every multiply-add."""
        p = self.p
        if d == 1:
            return {k: r for k, x in ints.items() if (r := x % p)}, 1
        inv = self.inv(d)
        return {k: r for k, x in ints.items() if (r := x * inv % p)}, 1

    def from_integral(self, ints, d):
        """A new dict of the nonzero residues x / d mod p of the ints x."""
        return self.normalize(ints, d)[0]

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_by_name(name):
    """'Q' or a prime written in decimal, as in the input file format."""
    if name == "Q":
        return QQ
    return GF(int(name))
