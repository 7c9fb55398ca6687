"""Exact ground fields: the rationals and prime fields F_p.

Field elements are plain Python values (Fraction for Q, int in range(p)
for F_p) so matrices and vectors can store them directly.  A Field object
bundles the arithmetic so the rest of the engine never touches floats.
Its two hooks `integral` and `from_integral` let products of matrices and
vectors and subspace reductions run on Python ints: lift a table of
entries to ints over one common denominator, sum products of those ints,
and lower the sums back to field elements once.
"""

from fractions import Fraction
from math import lcm


class Field:
    """Common interface; instantiate QQ or GF(p)."""

    def __call__(self, num, den=1):
        raise NotImplementedError

    def is_zero(self, x):
        return x == self.zero


class RationalField(Field):
    name = "Q"

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
        """A new dict of the Fractions x / d of the nonzero ints x, for a
        nonzero int d: the inverse of `integral`, with the zeros dropped.
        Each int is tested before a Fraction is made, and a product holds
        few distinct values, so each Fraction is made once and shared."""
        made, out = {}, {}
        for k, x in ints.items():
            if x:
                q = made.get(x)
                if q is None:
                    q = made[x] = Fraction(x, d)
                out[k] = q
        return out

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

    def from_integral(self, ints, d):
        """A new dict of the nonzero residues x / d mod p of the ints x (d
        is 1 when the ints come from `integral`, which keeps the residues
        as they are).  A sum of products is reduced once here, not after
        every multiply-add, and a residue is kept only when it is nonzero."""
        p = self.p
        if d == 1:
            return {k: r for k, x in ints.items() if (r := x % p)}
        inv = self.inv(d)
        return {k: r for k, x in ints.items() if (r := x * inv % p)}

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
