"""Exact ground fields: the rationals and prime fields F_p.

Field elements are plain Python values (Fraction for Q, int in range(p)
for F_p) so matrices and vectors can store them directly.  A Field object
bundles the arithmetic so the rest of the engine never touches floats.
"""

from fractions import Fraction


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

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
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
