"""Characteristic maps between cyclic theories and the cup products they carry.

The morphisms alpha, beta, xi and star are built degreewise as Matrix
composites of the structure maps (the pairing, the actions, the
coactions and their diagonal chains, the antipode) against the
coefficient complexes from `cyclic`, pushed through the quotient
towers in one product; the results are plain ModuleMorphism objects
whose commutation with all structure operators can be verified exactly.
Cup products with traces are realized by pulling evaluation covectors
back along these morphisms.
"""

from types import MappingProxyType
from weakref import WeakKeyDictionary

from .linalg import Matrix, ShapeMismatch, _lift
from .tensors import unflatten, permute, reshape, slot, table_matrix
from .hopf import (CompatibilityFailure, check_equivariant, check_sayd,
                   check_module_algebra, check_module_coalgebra, raise_failures,
                   is_commutative, is_symmetric_module, require_same_hopf,
                   tensor_hopf, tensor_module_algebra, tensor_modcomodule,
                   tensor_comodule_coalgebra, balanced_tensor_modcomodule,
                   crossed_product_algebra, crossed_product_coalgebra,
                   _action, _coaction, _codiagonals)
from .cyclic import (CHAIN, ModuleMorphism,
                     DescentFailure, NotSAYD, cyc_algebra, cyc_coalgebra,
                     hopf_cyclic_complex, _restrict,
                     hopf_cocyclic_comodule_algebra,
                     hopf_cyclic_comodule_coalgebra,
                     diag_hom, diag_tensor)
from .homology import Total


class NotEquivariant(Exception):
    pass


class NotCocycle(Exception):
    pass


class AgreementFailure(Exception):
    pass


class HypothesisFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# quotient towers


def _tower(x):
    """Composed projection/section from the ambient cover down to x.

    Walks the quotient/coinvariants metadata chain; returns the ambient
    module together with degreewise proj (ambient -> x) and sect
    (x -> ambient, a right inverse of proj).
    """
    if "parent" not in x.meta:   # not a quotient: the tower is the identity
        ident = {n: Matrix.identity(x.field, d) for n, d in x.spaces.items()}
        return x, ident, ident
    proj, sect, cur = x.meta["proj"], x.meta["sect"], x.meta["parent"]
    while "parent" in cur.meta:
        p, s, cur = cur.meta["proj"], cur.meta["sect"], cur.meta["parent"]
        proj = {n: m * p[n] for n, m in proj.items()}
        sect = {n: s[n] * m for n, m in sect.items()}
    return cur, proj, sect


# ---------------------------------------------------------------------------
# cochain classes and invariant traces


class CochainClass:
    """A vector of the total complex of one model, in one degree.

    It lives in a `homology.Total`, which fixes the module (the transpose of
    a chain module), the model and the block layout; `vector` is joined
    once from components keyed by the total's blocks, and split back into
    them once, on the first read of `components`.  Classes made from one
    another share their Total, so they build its model at most once.
    """

    def __init__(self, total, degree, components, name=None):
        self.total = total
        self.degree = degree
        self.vector = total.join(degree, components)
        self.name = name
        self._components = None

    @property
    def components(self):
        """The nonzero blocks of the vector, a read-only view."""
        if self._components is None:
            self._components = MappingProxyType({
                key: MappingProxyType(part) for key, part
                in self.total.split(self.degree, self.vector).items()})
        return self._components

    @property
    def representative(self):
        """The top component (classical single-degree cochain part)."""
        return dict(self.components.get(self.total.block(self.degree), {}))

    def is_single_degree(self):
        return set(self.components) <= {self.total.block(self.degree)}

    def is_cocycle(self):
        d = self.total.diffs.get(self.degree)
        if d is None:
            raise ShapeMismatch("no outgoing total differential at degree %d"
                                % self.degree)
        return not d.apply(self.vector)

    def differential(self):
        """The coboundary of this (not necessarily closed) representative."""
        img = self.total.diffs[self.degree].apply(self.vector)
        deg = self.degree + 1
        return CochainClass(self.total, deg, self.total.split(deg, img),
                            name="d(%s)" % (self.name or "class"))

    def scaled(self, c):
        f = self.total.field
        vec = {i: f.mul(c, v) for i, v in self.vector.items()}
        return CochainClass(self.total, self.degree,
                            self.total.split(self.degree, vec), name=self.name)

    def __eq__(self, other):
        if not isinstance(other, CochainClass):
            return NotImplemented
        f = self.total.field
        return (self.degree == other.degree
                and self.total.model == other.total.model
                and _lift(f, self.vector) == _lift(f, other.vector))


def from_cyclic_cocycle(module, p, vec, model="mixed", name=None):
    """Wrap a single-degree cyclic cocycle as a total-complex class.

    A cochain psi with b(psi) = 0 and (1 - lambda)(psi) = 0 is closed in
    both models with all other components zero, so the embedding is exact.
    """
    return _cyclic_class(Total(module, model), p, vec, name)


def _cyclic_class(total, p, vec, name):
    """from_cyclic_cocycle in a given Total, checked with its operators."""
    cls = CochainClass(total, p, {total.block(p): vec}, name=name)
    v = cls.representative
    if total.ops.one_minus_lambda(p).apply(v):
        raise NotCocycle("representative is not cyclic (lambda-fixed) "
                         "at degree %d" % p)
    b = total.ops.b(p)
    if b is not None and b.apply(v):
        raise NotCocycle("representative is not closed under b at degree %d" % p)
    return cls


# morphism -> {module: the mixed-model Total that products along the
# morphism land in there}; an entry goes with its morphism, which holds
# the module
_LANDING = WeakKeyDictionary()


def _landing(mor, module, p, vec, name):
    """from_cyclic_cocycle(module, p, vec) in one Total per morphism and
    module, so the classes of every call along mor share it and its
    operators."""
    totals = _LANDING.setdefault(mor, {})
    if module not in totals:
        totals[module] = Total(module)
    return _cyclic_class(totals[module], p, vec, name)


def cyclic_cocycles(module, p):
    """Basis of single-degree cyclic cocycles: ker b intersect ker(1 - lambda),
    as classes of the mixed model sharing one Total."""
    total = Total(module)
    f, d = total.field, total.module.spaces[p]
    b = total.ops.b(p) or Matrix.zero(f, 0, d)     # None at the top degree
    sub = Matrix.from_blocks(f, b.rows + d, d, [
        (0, 0, b), (b.rows, 0, total.ops.one_minus_lambda(p))]).kernel_basis()
    return [CochainClass(total, p, {total.block(p): v}) for v in sub.basis]


def classes_from_cohomology(module, p, model="mixed"):
    """Representative classes of the degree-p cohomology of a model, sharing
    one Total."""
    total = Total(module, model)
    return [CochainClass(total, p, total.split(p, rep))
            for rep in total.representatives(p)]


class InvariantTrace:
    """Degree-0 cyclic cocycle of a chain coefficient complex C_*(A,M).

    Extends itself to all degrees through the zeroth face; the ambient
    covector lives on the cover T_0 = A (x) M via the quotient tower.
    """

    def __init__(self, complex_c, t0, name=None):
        if complex_c.orientation != CHAIN:
            raise ShapeMismatch("invariant traces live on chain complexes")
        self.complex = complex_c
        self.t0 = dict(t0)
        self.name = name
        self._ext = {0: dict(t0)}
        self._tower = None

    def extended(self, n):
        """t_n = t_0 composed with the zeroth face n times."""
        if n not in self._ext:
            prev = self.extended(n - 1)
            self._ext[n] = self.complex.faces[(n, 0)].transpose().apply(prev)
        return dict(self._ext[n])

    def ambient(self):
        """The trace as a covector on the ambient cover at degree 0."""
        if self._tower is None:
            self._tower = _tower(self.complex)
        _, proj, _ = self._tower
        return proj[0].transpose().apply(self.t0)

    def as_class(self):
        return from_cyclic_cocycle(self.complex, 0, self.t0, name=self.name)


def invariant_traces(complex_c):
    """All covectors t on C_0 with t(b x) = 0 and t(tau_0 x) = t(x).

    These are exactly the degree-0 cyclic cocycles of the coefficient
    complex, one trace per basis vector cyclic_cocycles gives.
    """
    return [InvariantTrace(complex_c, k.representative)
            for k in cyclic_cocycles(complex_c, 0)]


# ---------------------------------------------------------------------------
# the characteristic morphisms


def _push(psi, py, sx):
    """(py (x) sx^T) psi: vec(py X sx) for each column vec(X) of psi, Hom
    vectors flattened row-major (Y index slowest), as diag_hom keeps them."""
    return slot(sx.transpose(), py.rows, 1) * (slot(py, 1, sx.rows) * psi)


def _leg_action(act, rho, mid):
    """v (x) w (x) x -> x(-1).v (x) w (x) x(0) on V (x) W (x) X, dim W = mid,
    for an action act: H (x) V -> V and a coaction rho: X -> H (x) X."""
    dh, dv, dx = rho.rows // rho.cols, act.rows, rho.cols
    legs = permute(slot(rho, dv * mid, 1), [dv, mid, dh, dx], (2, 0, 1, 3))
    return slot(act, 1, mid * dx) * legs


def _unzip(k, lead=0):
    """The slot order v_0 w_0 .. v_{k-1} w_{k-1} -> v_0..v_{k-1} w_0..w_{k-1},
    or with lead=1 -> w_0..w_{k-1} v_0..v_{k-1}."""
    return tuple(range(lead, 2 * k, 2)) + tuple(range(1 - lead, 2 * k, 2))


def _with_coefficients(twist, dy, dm):
    """y (x) x -> sum_m (y (x) m) (x) (m (x) x): the twisted tensor as a Hom
    vector y (x) m <- m (x) x, dim Y = dy, the M index slowest on both sides."""
    vec_id = reshape(Matrix.identity(twist.field, dm), dm * dm)
    return permute(twist.kron(vec_id), [dy, twist.rows // dy, dm, dm], (0, 2, 3, 1))


def alpha(pairing, m, N, buffer=2):
    """Cyc(A) -> diag Hom(C(C,M), C(A,M)) through an equivariant pairing.

    alpha_n(a_0 (x) ... (x) a_n) sends c^0 (x) ... (x) c^n (x) m to
    phi(c^0, a_0) (x) ... (x) phi(c^n, a_n) (x) m: on the covers this is
    the curried pairing a -> phi(-, a) to the power n+1, tensored with
    vec(id_M) and its slots permuted.  It is pushed through the quotient
    towers of both sides, with the descent verified degreewise.  buffer
    goes to hopf_cyclic_complex, which reads it only for m not SAYD.
    """
    raise_failures(NotEquivariant, check_equivariant(pairing))
    x_mod = hopf_cyclic_complex(pairing.coalg, m, N, buffer=buffer)
    y_mod = hopf_cyclic_complex(pairing.alg, m, N, buffer=buffer)
    f = pairing.field
    _, px, sx = _tower(x_mod)
    _, py, _ = _tower(y_mod)
    da = pairing.alg.algebra.dim
    dc = pairing.coalg.coalgebra.dim
    dm = m.dim
    # a -> phi(-, a) in A (x) C*
    curried = reshape(table_matrix(f, pairing.phi, [dc, da], [da]), da * dc)
    lift = reshape(Matrix.identity(f, dm), dm * dm)
    maps = {}
    for n in range(N + 1):
        lift = curried.kron(lift)
        # (a c)_0 .. (a c)_n (m m') -> a_0 .. a_n m (x) c_0 .. c_n m'
        psi = permute(lift, [da, dc] * (n + 1) + [dm, dm], _unzip(n + 2))
        down = slot(py[n], 1, sx[n].rows) * psi
        g = slot(sx[n].transpose(), py[n].rows, 1) * down
        if not Matrix.lincomb([(1, slot(px[n].transpose(), py[n].rows, 1), g),
                               (-1, down)]).is_zero():
            raise DescentFailure("alpha does not descend at degree %d" % n)
        maps[n] = g
    return ModuleMorphism(cyc_algebra(pairing.alg.algebra, N),
                          diag_hom(x_mod, y_mod, N), maps, name="alpha")


def beta(ma, ca, m, N):
    """Cyc(A x| B) -> diag Hom(C(B,M), C(A,M)) for a crossed product.

    beta_n((a_0,b^0) (x) ... (x) (a_n,b^n))(f) twists each a_j by the
    accumulated coaction legs of b^0..b^{j-1} and feeds the coaction
    residues (and the untouched b^n) to the colinear map f.  At step j
    the diagonal coaction of the prefix b^0..b^{j-1} acts on a_j.  M is
    SAYD (NotSAYD otherwise), so C(A,M) closes no J and reads no buffer.
    """
    require_same_hopf(ma.hopf, ca.hopf, "crossed product")
    raise_failures(CompatibilityFailure, check_module_algebra(ma))
    raise_failures(NotSAYD, check_sayd(m))
    f = ma.field
    x_mod = hopf_cocyclic_comodule_algebra(ca, m, N)
    y_mod = hopf_cyclic_complex(ma, m, N)
    _, py, _ = _tower(y_mod)
    da, db, dm = ma.algebra.dim, ca.algebra.dim, m.dim
    act = _action(ma, da)
    rhos = _codiagonals(ma.hopf.algebra.matrices()[0], _coaction(ca, db), N)
    maps = {}
    for n in range(N + 1):
        twist = permute(Matrix.identity(f, (da * db) ** (n + 1)), [da, db] * (n + 1),
                        _unzip(n + 1))
        for j in range(1, n + 1):
            # on a_j..a_n (x) b^0..b^{j-1}, inside a_0..a_n (x) b^0..b^n
            twist = slot(_leg_action(act, rhos[j - 1], da ** (n - j)),
                         da ** j, db ** (n + 1 - j)) * twist
        psi = _with_coefficients(twist, da ** (n + 1), dm)
        maps[n] = _push(psi, py[n], x_mod.meta["sub"][n].basis_matrix())
    return ModuleMorphism(cyc_algebra(crossed_product_algebra(ma, ca), N),
                          diag_hom(x_mod, y_mod, N), maps, name="beta")


def _xi_forms(zc, mc, m, n):
    """The two forms of xi_n on the covers, Hom vectors as diag_hom keeps them.

    Rows and columns are c_0..c_n (x) M <- M (x) z_0..z_n.  In the first
    form slot i is acted on by S^-1 of the diagonal coaction leg of the
    suffix z^{i+1}..z^n, for i = n-1 down to 0.  In the second the same
    runs over z^{i+1}..z^{n-1}, and z^n coacts twice: its outer leg acts
    on c_n, its inner leg on the coefficients.
    """
    f, h = zc.field, zc.hopf
    dz, dc, dm = zc.coalgebra.dim, mc.coalgebra.dim, m.dim
    act = _action(mc, dc)
    act_inv = act * slot(h.antipode_inv, 1, dc)
    rho = _coaction(zc, dz)
    rhos = _codiagonals(h.algebra.matrices()[0], rho, n)
    first = second = permute(Matrix.identity(f, (dz * dc) ** (n + 1)),
                             [dz, dc] * (n + 1), _unzip(n + 1, lead=1))
    for i in range(n - 1, -1, -1):
        # on c_i..c_n (x) z^0..z^n, inside c_0..c_n (x) z^0..z^n
        mid = dc ** (n - i) * dz ** (i + 1)
        first = slot(_leg_action(act_inv, rhos[n - 1 - i], mid), dc ** i, 1) * first
        if i < n - 1:
            second = slot(_leg_action(act_inv, rhos[n - 2 - i], mid),
                          dc ** i, dz) * second
    second = slot(_leg_action(act, rho, dz ** n), dc ** n, 1) * second
    # z^n -> z^n(-1) (x) z^n(0), the leg as vec(L_h) on the coefficients
    legs = slot(rho, dc ** (n + 1) * dz ** n, 1) * second
    lm = reshape(permute(_action(m, dm), [h.dim, dm], (1, 0), cols=True), dm * dm)
    second = permute(slot(lm, dc ** (n + 1) * dz ** n, dz) * legs,
                     [dc ** (n + 1), dz ** n, dm, dm, dz], (0, 2, 3, 1, 4))
    return _with_coefficients(first, dc ** (n + 1), dm), second


def xi(zc, mc, m, N):
    """Cyc(Z |x C) -> diag Hom(C(Z,M), C(C,M)) for a cocrossed product.

    Two equivalent forms of xi_n are assembled independently.  In the
    first, slot i is twisted by the inverse antipode of the product of
    the strictly later factors' coaction legs.  In the second, the last
    factor's legs are pulled out of the slot products: its inner leg
    acts on the coefficients and its next leg acts plainly on the last
    slot.  The two must agree once restricted to colinear maps and
    pushed through the quotient tower (the rewriting uses colinearity
    of the input and the coinvariance relations, so ambient agreement
    is not expected).  M is SAYD (NotSAYD otherwise): no J, no buffer.
    """
    require_same_hopf(zc.hopf, mc.hopf, "cocrossed product")
    raise_failures(CompatibilityFailure, check_module_coalgebra(mc))
    raise_failures(NotSAYD, check_sayd(m))
    x_mod = hopf_cyclic_comodule_coalgebra(zc, m, N)
    y_mod = hopf_cyclic_complex(mc, m, N)
    _, py, _ = _tower(y_mod)
    maps = {}
    for n in range(N + 1):
        sxm = x_mod.meta["sub"][n].basis_matrix()
        first, second = _xi_forms(zc, mc, m, n)
        g = _push(first, py[n], sxm)
        if g != _push(second, py[n], sxm):
            raise AgreementFailure(
                "the two displayed forms of xi disagree at degree %d" % n)
        maps[n] = g
    return ModuleMorphism(cyc_coalgebra(crossed_product_coalgebra(zc, mc), N),
                          diag_hom(x_mod, y_mod, N), maps, name="xi")


def star(zc, zc2, m, m2, N):
    """diag(C(Z,M) (x) C(Z',M')) -> C(Z (x) Z', M (x)_H M').

    (f * f')((x^0,y^0) (x) ... (x) (x^n,y^n)) = f(x-part) (x)_H f'(y-part);
    requires a commutative Hopf algebra and symmetric coefficient modules
    for the balanced tensor product to carry the cyclic structure.
    """
    if not is_commutative(zc.hopf):
        raise HypothesisFailure("the Hopf algebra is not commutative")
    if not (is_symmetric_module(m) and is_symmetric_module(m2)):
        raise HypothesisFailure("a coefficient module is not symmetric")
    u = hopf_cyclic_comodule_coalgebra(zc, m, N)
    v = hopf_cyclic_comodule_coalgebra(zc2, m2, N)
    zz = tensor_comodule_coalgebra(zc, zc2)
    mbar, pim, _ = balanced_tensor_modcomodule(m, m2)
    tgt = hopf_cyclic_comodule_coalgebra(zz, mbar, N)
    dz, dz2, dm, dm2 = zc.coalgebra.dim, zc2.coalgebra.dim, m.dim, m2.dim
    maps = {}
    for n in range(N + 1):
        # m z_0 .. z_n (x) m' z'_0 .. z'_n -> m m' (x) (z_0 z'_0) .. (z_n z'_n)
        dims = [dm] + [dz] * (n + 1) + [dm2] + [dz2] * (n + 1)
        order = tuple(i + b * (n + 2) for i in range(n + 2) for b in (0, 1))
        pair = permute(u.meta["sub"][n].basis_matrix().kron(
            v.meta["sub"][n].basis_matrix()), dims, order)
        full = slot(pim, 1, (dz * dz2) ** (n + 1)) * pair
        sub = tgt.meta["sub"][n]
        maps[n] = _restrict(full, sub, sub.basis_matrix(),
                            "star at degree %d" % n)
    return ModuleMorphism(diag_tensor(u, v), tgt, maps, name="star")


# ---------------------------------------------------------------------------
# evaluation covectors, pullbacks and cup products


def evaluation_covector(d, n, t_cov, c_vec):
    """Covector on a diag_hom space sending F to t(F(c)): the Kronecker
    product t (x) c, the Y index slowest, as diag_hom keeps Hom vectors."""
    f, dx = d.field, d.meta["x"].spaces[n]
    return Matrix.from_columns(f, d.spaces[n] // dx, [t_cov]).kron(
        Matrix.from_columns(f, dx, [c_vec])).columns()[0]


def _pulled_back(mor, p, trace, cls):
    """mor_p^T (t_p (x) c): the evaluation covector pulled back along mor."""
    return mor.maps[p].transpose().apply(evaluation_covector(
        mor.target, p, trace.extended(p), cls.representative))


def pullback(mor, cls):
    """Precompose a covector class on the target of a chain morphism.

    Cohomology of a chain module lives on its transpose, so classes pull
    back contravariantly along chain morphisms, componentwise.  The image
    of a cocycle must be closed.
    """
    if mor.source.orientation != CHAIN:
        raise ShapeMismatch("pullback needs a chain-oriented morphism")
    total = Total(mor.source, cls.total.model)
    comps = {key: mor.maps[total.space(key)].transpose().apply(vec)
             for key, vec in cls.components.items()}
    out = CochainClass(total, cls.degree, comps,
                       name="%s^*(%s)" % (mor.name or "f", cls.name or "class"))
    if cls.is_cocycle() and not out.is_cocycle():
        raise NotCocycle("pullback of a cocycle failed to be closed")
    return out


def cup_with_trace(cls, trace, mor):
    """Pair a cochain-side class against a trace through a characteristic map.

    Pulls the evaluation-against-the-trace covector on the diag Hom target
    back along the morphism; the result is a single-degree cyclic cocycle
    on the morphism's source.  Along beta this is the crossed cup
    HC^q_Hopf(B,M) (x) trace on A -> HC^q(A x| B).
    """
    if not cls.is_single_degree():
        raise NotCocycle("cup products need a single-degree representative")
    p = cls.degree
    return _landing(mor, mor.source, p, _pulled_back(mor, p, trace, cls),
                    "cup(%s)" % (cls.name or "class"))


def crossed_cocup_with_invariant(cls, g0, xi_mor):
    """Evaluate a Cyc(Z |x C) cocycle at a degeneracy-extended invariant.

    g0 must be a tau-fixed element of C_0(Z,M); its extension sigma_0^p g0
    is plugged into xi_p(class), landing in C_p(C,M).
    """
    x_mod = xi_mor.target.meta["x"]
    y_mod = xi_mor.target.meta["y"]
    f = x_mod.field
    g = _lift(f, g0)
    if x_mod.tau(0).apply(g) != g:
        raise NotCocycle("the degree-0 element is not tau-invariant")
    if not cls.is_single_degree():
        raise NotCocycle("evaluation needs a single-degree representative")
    p = cls.degree
    for k in range(p):
        g = x_mod.degeneracies[(k, 0)].apply(g)
    # xi_p(class) as a column, regrouped into the Hom matrix Y_p <- X_p
    hom = reshape(Matrix.from_columns(f, xi_mor.target.spaces[p], [
        xi_mor.maps[p].apply(cls.representative)]), y_mod.spaces[p])
    return _landing(xi_mor, y_mod, p, f.from_integral(*hom.apply(g)),
                    "cocup(%s)" % (cls.name or "class"))


def cm_char_map(trace, pairing, cls, alpha_mor):
    """The trace characteristic map, computed twice and compared.

    Route one evaluates the defining formula directly: the class is lifted
    to the cover, each lift term phi-multiplies into the algebra, and the
    ambient trace closes it off.  Route two pulls the evaluation covector
    back along alpha.  The two covectors must agree entry for entry.
    """
    if not cls.is_single_degree():
        raise NotCocycle("cm_char_map needs a single-degree representative")
    p = cls.degree
    x_mod = cls.total.module
    f = pairing.field
    # route two: pullback of the evaluation covector
    route2 = _pulled_back(alpha_mor, p, trace, cls)
    # route one: the displayed formula, evaluated term by term
    xt, _, sx = _tower(x_mod)
    lift = sx[p].apply(cls.representative)
    t_amb = trace.ambient()
    alg = pairing.alg.algebra
    da = alg.dim
    mul = alg.matrices()[0]
    dc = pairing.coalg.coalgebra.dim
    dm = xt.spaces[0] // dc
    xdims = [dc] * (p + 1) + [dm]
    route1 = {}
    for col in range(da ** (p + 1)):
        avec = unflatten(col, [da] * (p + 1))
        val = f.zero
        for idx, coef in lift.items():
            t = unflatten(idx, xdims)
            cur = dict(pairing.phi.get((t[0], avec[0]), {}))
            for i in range(1, p + 1):
                if not cur:
                    break
                phi = pairing.phi.get((t[i], avec[i]), {})
                cur = mul.apply({j * da + k: f.mul(x, y) for j, x in cur.items()
                                 for k, y in phi.items()})
            for ai, av in cur.items():
                tv = t_amb.get(ai * dm + t[p + 1])
                if tv is not None:
                    val = f.add(val, f.mul(coef, f.mul(av, tv)))
        if not f.is_zero(val):
            route1[col] = val
    if _lift(f, route1) != _lift(f, route2):
        raise AgreementFailure("direct formula and pullback route disagree "
                               "at degree %d" % p)
    return _landing(alpha_mor, alpha_mor.source, p, route1,
                    "gamma(%s)" % (cls.name or "class"))


# ---------------------------------------------------------------------------
# the diagonal tensor epimorphism check


def diag_tensor_epi_check(ma, ma2, m, m2, N, buffer=2, drop_factor=False):
    """Surjectivity of Q(H(x)H; A(x)A', M(x)M') onto diag(Q (x) Q').

    Builds the factor-reshuffling map on covers, pushes it through the
    quotient towers (one per factor, one in all when A' is A and M' is M,
    and one of the product), and certifies degreewise surjectivity by rank
    in degrees 0..N.  drop_factor corrupts the reshuffle by collapsing the
    second factor onto a single basis line (a forced negative control).
    """
    f = ma.field
    hh = tensor_hopf(ma.hopf, ma2.hopf)
    mat = tensor_module_algebra(ma, ma2, hh)
    mmt = tensor_modcomodule(m, m2, hh)
    q12, q1 = (hopf_cyclic_complex(a, c, N, buffer=buffer, level="Q")
               for a, c in ((mat, mmt), (ma, m)))
    q2 = q1 if ma2 is ma and m2 is m else hopf_cyclic_complex(
        ma2, m2, N, buffer=buffer, level="Q")
    _, p12, s12 = _tower(q12)
    _, p1, _ = _tower(q1)
    p2 = p1 if q2 is q1 else _tower(q2)[1]
    da, da2 = ma.algebra.dim, ma2.algebra.dim
    dm, dm2 = m.dim, m2.dim
    report = {"degrees": {}, "surjective": True, "descends": True,
              "corrupted": bool(drop_factor)}
    for n in range(N + 1):
        d1 = da ** (n + 1) * dm
        d2 = da2 ** (n + 1) * dm2
        # (a_0 a'_0) .. (a_n a'_n) (m m') -> a_0 .. a_n m (x) a'_0 .. a'_n m'
        dims = [da, da2] * (n + 1) + [dm, dm2]
        perm = permute(Matrix.identity(f, d1 * d2), dims, _unzip(n + 2))
        if drop_factor:
            collapse = Matrix(f, d2, d2, {(0, j): f.one for j in range(d2)})
            perm = slot(collapse, d1, 1) * perm
        down = p1[n].kron(p2[n]) * perm
        phi = down * s12[n]
        if not Matrix.lincomb([(1, phi, p12[n]), (-1, down)]).is_zero():
            report["descends"] = False
        r = phi.rank()
        tgt = q1.spaces[n] * q2.spaces[n]
        report["degrees"][n] = {"rank": r, "target_dim": tgt}
        if r < tgt:
            report["surjective"] = False
    return report
