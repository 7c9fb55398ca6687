"""Shipped fixture library: small Hopf algebras and actors at desk scale.

Everything is built over a caller-supplied exact field (default Q), and
nothing here is assumed lawful: the test suite runs check_structure on
each fixture.
"""

from .fields import QQ
from .hopf import (AlgebraData, CoalgebraData, HopfAlgebraData, ModuleAlgebra,
                   ModuleCoalgebra, ComoduleAlgebra, ComoduleCoalgebra,
                   ModComodule, ModularPair, EquivariantPairing)
from .linalg import Matrix
from .tensors import matrix_table, table_matrix


def trivial_hopf(field=QQ):
    """H = k: the group algebra of the trivial group."""
    k = group_algebra(field, 1)
    k.name = "k"
    return k


def group_algebra(field, n):
    """kZ/n with basis 1, g, ..., g^(n-1)."""
    one = field.one
    labels = ["g^%d" % i if i else "1" for i in range(n)]
    mul = {(i, j): {(i + j) % n: one} for i in range(n) for j in range(n)}
    alg = AlgebraData(field, n, mul, {0: one}, labels=labels)
    comul = {i: {(i, i): one} for i in range(n)}
    counit = {i: one for i in range(n)}
    co = CoalgebraData(field, n, comul, counit, labels=labels)
    s = Matrix(field, n, n, {((n - i) % n, i): one for i in range(n)})
    return HopfAlgebraData(alg, co, s, name="kZ/%d" % n)


def sweedler_hopf(field=QQ):
    """Sweedler's 4-dimensional Hopf algebra, basis 1, g, x, gx."""
    one = field.one
    neg = field.neg(one)
    I, G, X, W = 0, 1, 2, 3
    mul = {
        (I, I): {I: one}, (I, G): {G: one}, (I, X): {X: one}, (I, W): {W: one},
        (G, I): {G: one}, (G, G): {I: one}, (G, X): {W: one}, (G, W): {X: one},
        (X, I): {X: one}, (X, G): {W: neg}, (X, X): {}, (X, W): {},
        (W, I): {W: one}, (W, G): {X: neg}, (W, X): {}, (W, W): {},
    }
    alg = AlgebraData(field, 4, mul, {I: one}, labels=["1", "g", "x", "gx"])
    comul = {
        I: {(I, I): one},
        G: {(G, G): one},
        X: {(X, I): one, (G, X): one},
        W: {(W, G): one, (I, W): one},
    }
    counit = {I: one, G: one}
    co = CoalgebraData(field, 4, comul, counit, labels=alg.labels)
    s = Matrix(field, 4, 4, {(I, I): one, (G, G): one, (W, X): neg, (X, W): one})
    return HopfAlgebraData(alg, co, s, name="Sweedler H4")


def dual_numbers_algebra(field=QQ):
    """A = k[x]/(x^2), basis 1, x."""
    one = field.one
    mul = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {}}
    return AlgebraData(field, 2, mul, {0: one}, labels=["1", "x"])


def product_field_algebra(field=QQ):
    """A = k x k, basis of orthogonal idempotents."""
    one = field.one
    mul = {(0, 0): {0: one}, (0, 1): {}, (1, 0): {}, (1, 1): {1: one}}
    return AlgebraData(field, 2, mul, {0: one, 1: one}, labels=["e0", "e1"])


def dual_numbers_module_algebra(hopf):
    """k[x]/(x^2) as a module algebra over hopf = kZ/2 with g.x = -x."""
    f = hopf.field
    alg = dual_numbers_algebra(f)
    action = {
        (0, 0): {0: f.one}, (0, 1): {1: f.one},
        (1, 0): {0: f.one}, (1, 1): {1: f.neg(f.one)},
    }
    return ModuleAlgebra(hopf, alg, action, name="k[x]/(x^2) over kZ/2")


def _left_regular(hopf):
    """The action table of H on itself by left multiplication: the
    multiplication table, every key present."""
    d = hopf.dim
    return matrix_table(hopf.algebra.matrices()[0], [d, d], [d])


def regular_module_coalgebra(hopf):
    """C = H acting on itself by left multiplication."""
    return ModuleCoalgebra(hopf, hopf.coalgebra, _left_regular(hopf),
                           name="C = H (left regular)")


def regular_comodule_algebra(hopf):
    """B = H with coaction given by the comultiplication."""
    coaction = {b: dict(hopf.coalgebra.comul[b]) for b in range(hopf.dim)}
    return ComoduleAlgebra(hopf, hopf.algebra, coaction, name="B = H (Delta coaction)")


def trivial_comodule_coalgebra(hopf, coalgebra):
    coaction = {}
    for z in range(coalgebra.dim):
        coaction[z] = {(i, z): v for i, v in hopf.unit().items()}
    return ComoduleCoalgebra(hopf, coalgebra, coaction, name="trivial coaction")


def function_comodule_coalgebra(hopf_group, n=None):
    """Functions on Z/n as a kZ/n-comodule coalgebra.

    Basis d_0..d_(n-1) with Delta(d_k) = sum_{i+j=k} d_i (x) d_j and
    coaction d_k -> g^k (x) d_k.  This is the graded coalgebra satisfying
    the mixed compatibility; the group-like basis with diagonal coaction
    does not satisfy it.
    """
    f = hopf_group.field
    if n is None:
        n = hopf_group.dim
    one = f.one
    labels = ["d%d" % k for k in range(n)]
    comul = {k: {(i, (k - i) % n): one for i in range(n)} for k in range(n)}
    counit = {0: one}
    co = CoalgebraData(f, n, comul, counit, labels=labels)
    coaction = {k: {(k, k): one} for k in range(n)}
    return ComoduleCoalgebra(hopf_group, co, coaction, name="k^(Z/%d)" % n)


def regular_action_trivial_coaction(hopf):
    """M = H with the left regular action and trivial coaction.

    For cocommutative H this is AYD (h1 S^-1(h3) (x) h2 collapses to
    1 (x) h) and stable, so it is a positive fixture there.
    """
    coaction = {m: {(i, m): v for i, v in hopf.unit().items()} for m in range(hopf.dim)}
    return ModComodule(hopf, hopf.dim, _left_regular(hopf), coaction,
                       name="H regular / trivial")


def regular_action_regular_coaction(hopf):
    """M = H with left regular action and Delta as coaction.

    Fails both stability and the AYD condition already over kZ/2
    (h = g, m = 1 is a witness), so it serves as the negative control.
    """
    coaction = {m: dict(hopf.coalgebra.comul[m]) for m in range(hopf.dim)}
    return ModComodule(hopf, hopf.dim, _left_regular(hopf), coaction,
                       name="H regular / Delta")


def trivial_modular_pair(hopf):
    """sigma = 1, delta = eps."""
    f = hopf.field
    sigma = dict(hopf.unit())
    delta = {h: hopf.coalgebra.counit.get(h, f.zero) for h in range(hopf.dim)}
    delta = {h: v for h, v in delta.items() if not f.is_zero(v)}
    return ModularPair(sigma, delta)


def action_pairing(mc, ma):
    """phi(c, a) = c.a for C = H acting through the module-algebra action:
    the action table, every key present."""
    dims = [mc.coalgebra.dim, ma.algebra.dim]
    act = table_matrix(ma.field, ma.action, dims, dims[1:])
    return EquivariantPairing(mc, ma, matrix_table(act, dims, dims[1:]),
                              name="phi(h,a)=h.a")


def counit_pairing(mc, ma):
    """phi(c, a) = eps(c) a."""
    f = ma.field
    phi = {}
    for c in range(mc.coalgebra.dim):
        e = mc.coalgebra.counit.get(c, f.zero)
        for a in range(ma.algebra.dim):
            phi[(c, a)] = {a: e} if not f.is_zero(e) else {}
    return EquivariantPairing(mc, ma, phi, name="phi(c,a)=eps(c)a")


def group_likes(hopf):
    """The basis vectors e_i that are group-like: Delta(e_i) = e_i (x) e_i
    and eps(e_i) = 1.  Only basis vectors are tried, so a group-like
    element that is not a basis vector is not found."""
    f, d = hopf.field, hopf.dim
    dl, eps = (m.columns() for m in hopf.coalgebra.matrices())
    return [{i: f.one} for i in range(d)
            if dl[i] == {i * d + i: f.one} and eps[i] == {0: f.one}]


def characters(hopf):
    """The characters (algebra maps H -> k) whose values on the basis all
    lie in {-1, 0, 1}, found by trying every such tuple of values.

    A tuple delta is kept when delta u = 1 and delta m = delta (x) delta.
    A character taking another value, such as g -> 2 on kZ/3 over GF(7),
    is not found.
    """
    from itertools import product as iproduct
    f, d = hopf.field, hopf.dim
    m, u = hopf.algebra.matrices()
    out = []
    for values in iproduct([f.neg(f.one), f.zero, f.one], repeat=d):
        delta = Matrix(f, 1, d, {(0, i): v for i, v in enumerate(values)})
        if delta * u == Matrix.identity(f, 1) and delta * m == delta.kron(delta):
            out.append({i: v for i, v in enumerate(values) if not f.is_zero(v)})
    return out
