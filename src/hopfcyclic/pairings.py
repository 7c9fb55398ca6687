"""Characteristic maps between cyclic theories and the cup products they carry.

The morphisms alpha, beta, xi and star are built degreewise as explicit
matrices against the coefficient complexes from `cyclic`; every formula
is evaluated on basis tuples, pushed through the quotient towers, and
the results are plain ModuleMorphism objects whose commutation with all
structure operators can be verified exactly.  Cup products with traces
are realized by pulling evaluation covectors back along these morphisms.
"""

from itertools import product as iproduct

from .linalg import Matrix, ShapeMismatch, add_into
from .tensors import flatten, unflatten, prod, tensor_step, permute, slot
from .hopf import (check_equivariant, check_sayd,
                   is_commutative, is_symmetric_module, require_same_hopf,
                   tensor_hopf, tensor_module_algebra, tensor_modcomodule,
                   tensor_comodule_coalgebra, balanced_tensor_modcomodule,
                   crossed_product_algebra, crossed_product_coalgebra, _vec_eq)
from .cyclic import (CHAIN, COCHAIN, ModuleMorphism,
                     DescentFailure, NotSAYD, cyc_algebra, cyc_coalgebra,
                     hopf_cyclic_complex, _restrict,
                     hopf_cocyclic_comodule_algebra,
                     hopf_cyclic_comodule_coalgebra,
                     diag_hom, diag_tensor)
from .homology import (hochschild_b, total_complex, _as_cochain, _lambda,
                       _cohomology_at)


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
    proj = {n: Matrix.identity(x.field, d) for n, d in x.spaces.items()}
    sect = {n: Matrix.identity(x.field, d) for n, d in x.spaces.items()}
    cur = x
    while cur.meta.get("kind") in ("quotient", "coinvariants"):
        p = cur.meta["proj"]
        s = cur.meta["sect"]
        proj = {n: m * p[n] for n, m in proj.items() if n in p}
        sect = {n: s[n] * m for n, m in sect.items() if n in s}
        cur = cur.meta["parent"]
    return cur, proj, sect


def _iter_coaction(field, coaction, idx, times):
    """Expand an iterated coaction: list of (legs_tuple, residue_index, coeff).

    Legs come out so that legs[t] is the (t - times)-th leg, i.e. legs[0]
    is the outermost x_{[-times]} and legs[-1] is x_{[-1]}.
    """
    cur = [((), idx, field.one)]
    for _ in range(times):
        nxt = {}
        for legs, i, c in cur:
            for (h, j), v in coaction[i].items():
                add_into(field, nxt, (legs + (h,), j), field.mul(c, v))
        cur = [(k[0], k[1], v) for k, v in nxt.items()]
    return cur


def _flatten_hom(mat, dim_x):
    """Row-major flattening of a Hom-space matrix to a diag_hom vector."""
    return {yi * dim_x + xj: v for (yi, xj), v in mat.entries.items()}


# ---------------------------------------------------------------------------
# cochain classes and invariant traces


class CochainClass:
    """Total-complex cocycle representative for one of the two models.

    Stored against a cochain-oriented module; a class handed a chain
    module is interpreted as a covector class of the degreewise transpose.
    Components are keyed by internal degree (mixed model) or bidegree
    (bicomplex model) and assemble into a vector of the total complex.
    """

    def __init__(self, module, degree, components, model="mixed", name=None):
        module = _as_cochain(module)
        if model not in ("mixed", "bicomplex"):
            raise ValueError("model must be 'mixed' or 'bicomplex'")
        self.module = module
        self.degree = degree
        self.model = model
        self.components = {k: dict(v) for k, v in components.items() if v}
        self.name = name
        self._totals = None

    def _total_data(self):
        if self._totals is None:
            self._totals = total_complex(self.module, self.model)
        return self._totals

    def total_vector(self):
        _, _, _, offs = self._total_data()
        out = {}
        for key, vec in self.components.items():
            off = offs[self.degree][key]
            for i, v in vec.items():
                out[off + i] = v
        return out

    @property
    def representative(self):
        """The top component (classical single-degree cochain part)."""
        key = self.degree if self.model == "mixed" else (0, self.degree)
        return dict(self.components.get(key, {}))

    def is_single_degree(self):
        key = self.degree if self.model == "mixed" else (0, self.degree)
        return set(self.components) <= {key}

    def is_cocycle(self):
        _, diffs, _, _ = self._total_data()
        d = diffs.get(self.degree)
        if d is None:
            raise ShapeMismatch("no outgoing total differential at degree %d"
                                % self.degree)
        return not d.apply(self.total_vector())

    def differential(self):
        """The coboundary of this (not necessarily closed) representative."""
        _, diffs, comps, offs = self._total_data()
        img = diffs[self.degree].apply(self.total_vector())
        deg = self.degree + 1
        parts = _components(self.module, self.model, comps, offs, deg, img)
        return CochainClass(self.module, deg, parts, model=self.model,
                            name="d(%s)" % (self.name or "class"))

    def scaled(self, c):
        f = self.module.field
        comps = {k: {i: f.mul(c, v) for i, v in vec.items()}
                 for k, vec in self.components.items()}
        return CochainClass(self.module, self.degree, comps, model=self.model,
                            name=self.name)

    def __eq__(self, other):
        if not isinstance(other, CochainClass):
            return NotImplemented
        if self.degree != other.degree or self.model != other.model:
            return False
        f = self.module.field
        for key in set(self.components) | set(other.components):
            if not _vec_eq(f, self.components.get(key, {}),
                           other.components.get(key, {})):
                return False
        return True


def _components(module, model, comps, offs, deg, vec):
    """A degree-deg total-complex vector split into its nonzero blocks."""
    parts = {}
    for key in comps[deg]:
        off = offs[deg][key]
        size = module.spaces[key if model == "mixed" else key[1]]
        part = {i - off: v for i, v in vec.items() if off <= i < off + size}
        if part:
            parts[key] = part
    return parts


def from_cyclic_cocycle(module, p, vec, model="mixed", check=True, name=None):
    """Wrap a single-degree cyclic cocycle as a total-complex class.

    A cochain psi with b(psi) = 0 and lambda(psi) = psi is closed in both
    models with all other components zero, so the embedding is exact.
    """
    key = p if model == "mixed" else (0, p)
    cls = CochainClass(module, p, {key: vec}, model=model, name=name)
    if check:
        mod = cls.module
        f = mod.field
        v = cls.representative
        lam = _lambda(mod, p)
        if not _vec_eq(f, lam.apply(v), v):
            raise NotCocycle("representative is not cyclic (lambda-fixed) "
                             "at degree %d" % p)
        b = hochschild_b(mod, p)
        if b is not None and b.apply(v):
            raise NotCocycle("representative is not closed under b at degree %d" % p)
    return cls


def cyclic_cocycles(module, p):
    """Basis of single-degree cyclic cocycles: ker b intersect ker(1 - lambda)."""
    mod = _as_cochain(module)
    f = mod.field
    d = mod.spaces[p]
    b = hochschild_b(mod, p)
    lam = _lambda(mod, p)
    rows = b.rows if b is not None else 0
    stack = dict(b.entries) if b is not None else {}
    for (i, j), v in (Matrix.identity(f, d) - lam).entries.items():
        stack[(rows + i, j)] = v
    sub = Matrix(f, rows + d, d, stack).kernel_basis()
    return [from_cyclic_cocycle(module, p, dict(v), check=False)
            for v in sub.basis]


def classes_from_cohomology(module, p, model="mixed"):
    """Representative classes of the degree-p cohomology of a model."""
    mod = _as_cochain(module)
    dims, diffs, comps, offs = total_complex(mod, model)
    _, reps = _cohomology_at(mod.field, dims, diffs, p)
    return [CochainClass(mod, p, _components(mod, model, comps, offs, p, rep),
                         model=model)
            for rep in reps]


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

    def ambient(self, n=0):
        """The trace as a covector on the ambient cover at degree n."""
        if self._tower is None:
            self._tower = _tower(self.complex)
        _, proj, _ = self._tower
        return proj[n].transpose().apply(self.extended(n))

    def as_class(self):
        return from_cyclic_cocycle(self.complex, 0, self.t0, check=True,
                                   name=self.name)


def invariant_traces(complex_c):
    """All covectors t on C_0 with t(b x) = 0 and t(tau_0 x) = t(x).

    These are exactly the degree-0 cyclic cocycles of the coefficient
    complex; the conditions are linear, so the full solution space comes
    out of one kernel computation.
    """
    f = complex_c.field
    d0 = complex_c.spaces[0]
    d1 = complex_c.spaces[1]
    b1 = hochschild_b(complex_c, 1)
    stack = {(j, i): v for (i, j), v in b1.entries.items()}   # rows of b1^T
    fix = complex_c.tau(0).transpose() - Matrix.identity(f, d0)
    for (i, j), v in fix.entries.items():
        stack[(d1 + i, j)] = v
    sub = Matrix(f, d1 + d0, d0, stack).kernel_basis()
    return [InvariantTrace(complex_c, dict(v)) for v in sub.basis]


# ---------------------------------------------------------------------------
# the characteristic morphisms


def alpha(pairing, m, N, x_mod=None, y_mod=None, level="C", buffer=2,
          check=True):
    """Cyc(A) -> diag Hom(C(C,M), C(A,M)) through an equivariant pairing.

    alpha_n(a_0 (x) ... (x) a_n) sends c^0 (x) ... (x) c^n (x) m to
    phi(c^0, a_0) (x) ... (x) phi(c^n, a_n) (x) m; the map is built on the
    covers and pushed through the quotient towers of both sides, with the
    descent verified degreewise.
    """
    bad = check_equivariant(pairing)
    if bad:
        raise NotEquivariant("; ".join(bad))
    if x_mod is None:
        x_mod = hopf_cyclic_complex(pairing.coalg, m, N, buffer=buffer,
                                    level=level)
    if y_mod is None:
        y_mod = hopf_cyclic_complex(pairing.alg, m, N, buffer=buffer,
                                    level=level)
    f = pairing.field
    _, px, sx = _tower(x_mod)
    _, py, _ = _tower(y_mod)
    da = pairing.alg.algebra.dim
    dc = pairing.coalg.coalgebra.dim
    dm = m.dim
    src = cyc_algebra(pairing.alg.algebra, N)
    tgt = diag_hom(x_mod, y_mod, N)
    maps = {}
    for n in range(N + 1):
        src_dims = [da] * (n + 1)
        xdims = [dc] * (n + 1) + [dm]
        ydims = [da] * (n + 1) + [dm]
        dim_x = x_mod.spaces[n]
        cols = []
        for col in range(prod(src_dims)):
            avec = unflatten(col, src_dims)
            big = {}
            for xcol in range(prod(xdims)):
                t = unflatten(xcol, xdims)
                terms = {(): f.one}
                for i in range(n + 1):
                    piece = pairing.phi[(t[i], avec[i])]
                    if not piece:
                        terms = {}
                        break
                    terms = tensor_step(f, terms, piece)
                for key, v in terms.items():
                    add_into(f, big, (flatten(key + (t[n + 1],), ydims), xcol), v)
            down = py[n] * Matrix(f, prod(ydims), prod(xdims), big)
            g = down * sx[n]
            if check and g * px[n] != down:
                raise DescentFailure("alpha does not descend at degree %d" % n)
            cols.append(_flatten_hom(g, dim_x))
        maps[n] = Matrix.from_columns(f, dim_x * y_mod.spaces[n], cols)
    return ModuleMorphism(src, tgt, maps, name="alpha")


def beta(ma, ca, m, N, y_mod=None, buffer=2):
    """Cyc(A x| B) -> diag Hom(C(B,M), C(A,M)) for a crossed product.

    beta_n((a_0,b^0) (x) ... (x) (a_n,b^n))(f) twists each a_j by the
    accumulated coaction legs of b^0..b^{j-1} and feeds the coaction
    residues (and the untouched b^n) to the colinear map f.
    """
    require_same_hopf(ma.hopf, ca.hopf, "crossed product")
    bad = check_sayd(m)
    if bad:
        raise NotSAYD("; ".join(bad))
    f = ma.field
    hopf = ma.hopf
    x_mod = hopf_cocyclic_comodule_algebra(ca, m, N)
    if y_mod is None:
        y_mod = hopf_cyclic_complex(ma, m, N, buffer=buffer)
    _, py, _ = _tower(y_mod)
    da, db, dm = ma.algebra.dim, ca.algebra.dim, m.dim
    src = cyc_algebra(crossed_product_algebra(ma, ca), N)
    tgt = diag_hom(x_mod, y_mod, N)
    subs = x_mod.meta["sub"]
    maps = {}
    for n in range(N + 1):
        tb = db ** (n + 1)
        bdims = [db] * (n + 1)
        ydims = [da] * (n + 1) + [dm]
        sxm = subs[n].basis_matrix()
        dim_x = x_mod.spaces[n]
        cols = []
        for col in range(prod([da * db] * (n + 1))):
            tup = unflatten(col, [da * db] * (n + 1))
            avec = [t // db for t in tup]
            bvec = [t % db for t in tup]
            big = {}
            expans = [_iter_coaction(f, ca.coaction, bvec[i], n - i)
                      for i in range(n)]
            for combo in iproduct(*expans):
                coef = f.one
                for _, _, c in combo:
                    coef = f.mul(coef, c)
                bz = tuple(item[1] for item in combo) + (bvec[n],)
                xcol = flatten(bz, bdims)
                terms = {(avec[0],): coef}
                for j in range(1, n + 1):
                    hv = hopf.unit()
                    for i in range(j):
                        hv = hopf.multiply(hv, {combo[i][0][j - i - 1]: f.one})
                    terms = tensor_step(f, terms, ma.act(hv, {avec[j]: f.one}))
                for key, v in terms.items():
                    for mi in range(dm):
                        add_into(f, big, (flatten(key + (mi,), ydims),
                                          mi * tb + xcol), v)
            g = py[n] * Matrix(f, prod(ydims), dm * tb, big) * sxm
            cols.append(_flatten_hom(g, dim_x))
        maps[n] = Matrix.from_columns(f, dim_x * y_mod.spaces[n], cols)
    return ModuleMorphism(src, tgt, maps, name="beta")


def xi(zc, mc, m, N, y_mod=None, buffer=2, check=True):
    """Cyc(Z |x C) -> diag Hom(C(Z,M), C(C,M)) for a cocrossed product.

    Two equivalent forms of xi_n are assembled independently.  In the
    first, slot i is twisted by the inverse antipode of the product of
    the strictly later factors' coaction legs.  In the second, the last
    factor's legs are pulled out of the slot products: its inner leg
    acts on the coefficients and its next leg acts plainly on the last
    slot.  The two must agree once restricted to colinear maps and
    pushed through the quotient tower (the rewriting uses colinearity
    of the input and the coinvariance relations, so ambient agreement
    is not expected).
    """
    require_same_hopf(zc.hopf, mc.hopf, "cocrossed product")
    bad = check_sayd(m)
    if bad:
        raise NotSAYD("; ".join(bad))
    f = zc.field
    hopf = zc.hopf
    x_mod = hopf_cyclic_comodule_coalgebra(zc, m, N)
    if y_mod is None:
        y_mod = hopf_cyclic_complex(mc, m, N, buffer=buffer)
    _, py, _ = _tower(y_mod)
    dz, dc, dm = zc.coalgebra.dim, mc.coalgebra.dim, m.dim
    src = cyc_coalgebra(crossed_product_coalgebra(zc, mc), N)
    tgt = diag_hom(x_mod, y_mod, N)
    subs = x_mod.meta["sub"]
    maps = {}
    for n in range(N + 1):
        tz = dz ** (n + 1)
        zdims = [dz] * (n + 1)
        ydims = [dc] * (n + 1) + [dm]
        sxm = subs[n].basis_matrix()
        dim_x = x_mod.spaces[n]
        cols = []
        for col in range(prod([dz * dc] * (n + 1))):
            tup = unflatten(col, [dz * dc] * (n + 1))
            zvec = [t // dc for t in tup]
            cvec = [t % dc for t in tup]
            # form 1: slot i twisted by the legs of the strictly later factors
            big1 = {}
            expans = [_iter_coaction(f, zc.coaction, zvec[j], j)
                      for j in range(n + 1)]
            for combo in iproduct(*expans):
                coef = f.one
                for _, _, c in combo:
                    coef = f.mul(coef, c)
                zz = tuple(item[1] for item in combo)
                xcol = flatten(zz, zdims)
                terms = {(): coef}
                for i in range(n + 1):
                    hv = hopf.unit()
                    for j in range(i + 1, n + 1):
                        hv = hopf.multiply(hv, {combo[j][0][j - i - 1]: f.one})
                    sh = hopf.apply_antipode(hv, inverse=True)
                    terms = tensor_step(f, terms, mc.act(sh, {cvec[i]: f.one}))
                for key, v in terms.items():
                    for mi in range(dm):
                        add_into(f, big1, (flatten(key + (mi,), ydims),
                                           mi * tz + xcol), v)
            # form 2: the last factor's single leg acts on the coefficients
            big2 = {}
            expans = [_iter_coaction(f, zc.coaction, zvec[j], j)
                      for j in range(n)]
            expans.append(_iter_coaction(f, zc.coaction, zvec[n], 2))
            for combo in iproduct(*expans):
                coef = f.one
                for _, _, c in combo:
                    coef = f.mul(coef, c)
                zz = tuple(item[1] for item in combo)
                xcol = flatten(zz, zdims)
                terms = {(): coef}
                for i in range(n):
                    hv = hopf.unit()
                    for j in range(i + 1, n):
                        hv = hopf.multiply(hv, {combo[j][0][j - i - 1]: f.one})
                    sh = hopf.apply_antipode(hv, inverse=True)
                    terms = tensor_step(f, terms, mc.act(sh, {cvec[i]: f.one}))
                terms = tensor_step(
                    f, terms, mc.act({combo[n][0][0]: f.one}, {cvec[n]: f.one}))
                hn = combo[n][0][1]
                for key, v in terms.items():
                    for mi in range(dm):
                        for mk, w in m.action[(hn, mi)].items():
                            add_into(f, big2, (flatten(key + (mk,), ydims),
                                               mi * tz + xcol), f.mul(v, w))
            big1, big2 = (Matrix(f, prod(ydims), dm * tz, e) for e in (big1, big2))
            g = py[n] * (big1 * sxm)
            if check and g != py[n] * (big2 * sxm):
                raise AgreementFailure(
                    "the two displayed forms of xi disagree at degree %d" % n)
            cols.append(_flatten_hom(g, dim_x))
        maps[n] = Matrix.from_columns(f, dim_x * y_mod.spaces[n], cols)
    return ModuleMorphism(src, tgt, maps, name="xi")


def star(zc, zc2, m, m2, N, check_hyp=True):
    """diag(C(Z,M) (x) C(Z',M')) -> C(Z (x) Z', M (x)_H M').

    (f * f')((x^0,y^0) (x) ... (x) (x^n,y^n)) = f(x-part) (x)_H f'(y-part);
    requires a commutative Hopf algebra and symmetric coefficient modules
    for the balanced tensor product to carry the cyclic structure.
    """
    hopf = zc.hopf
    if check_hyp:
        if not is_commutative(hopf):
            raise HypothesisFailure("the Hopf algebra is not commutative")
        if not (is_symmetric_module(m) and is_symmetric_module(m2)):
            raise HypothesisFailure("a coefficient module is not symmetric")
    f = zc.field
    u = hopf_cyclic_comodule_coalgebra(zc, m, N)
    v = hopf_cyclic_comodule_coalgebra(zc2, m2, N)
    src = diag_tensor(u, v)
    zz = tensor_comodule_coalgebra(zc, zc2)
    mbar, pim, _ = balanced_tensor_modcomodule(m, m2)
    tgt = hopf_cyclic_comodule_coalgebra(zz, mbar, N)
    dz, dz2 = zc.coalgebra.dim, zc2.coalgebra.dim
    dm, dm2, dmb = m.dim, m2.dim, mbar.dim
    subs_u, subs_v, subs_t = u.meta["sub"], v.meta["sub"], tgt.meta["sub"]
    maps = {}
    for n in range(N + 1):
        tz, tz2 = dz ** (n + 1), dz2 ** (n + 1)
        tw = (dz * dz2) ** (n + 1)
        big = {}
        for x in range(tz):
            zt = unflatten(x, [dz] * (n + 1))
            for x2 in range(tz2):
                z2t = unflatten(x2, [dz2] * (n + 1))
                w = flatten(tuple(zt[k] * dz2 + z2t[k] for k in range(n + 1)),
                            [dz * dz2] * (n + 1))
                for (row, colpair), val in pim.entries.items():
                    mi, mj = divmod(colpair, dm2)
                    big[(row * tw + w,
                         (mi * tz + x) * (dm2 * tz2) + (mj * tz2 + x2))] = val
        big = Matrix(f, dmb * tw, (dm * tz) * (dm2 * tz2), big)
        full = big * subs_u[n].basis_matrix().kron(subs_v[n].basis_matrix())
        maps[n] = _restrict(full.columns(), subs_t[n], "star at degree %d" % n)
    return ModuleMorphism(src, tgt, maps, name="star")


# ---------------------------------------------------------------------------
# evaluation covectors, pullbacks and cup products


def evaluation_covector(d, n, t_cov, c_vec):
    """Covector on a diag_hom space sending F to t(F(c))."""
    f = d.field
    dim_x = d.meta["x"].spaces[n]
    out = {}
    for yi, tv in t_cov.items():
        for xj, cv in c_vec.items():
            w = f.mul(tv, cv)
            if not f.is_zero(w):
                out[yi * dim_x + xj] = w
    return out


def pullback(mor, cls, check=True):
    """Precompose a covector class on the target of a chain morphism.

    Cohomology of a chain module lives on its transpose, so classes pull
    back contravariantly along chain morphisms, componentwise.
    """
    if mor.source.orientation != CHAIN:
        raise ShapeMismatch("pullback needs a chain-oriented morphism")
    comps = {}
    for key, vec in cls.components.items():
        deg = key if cls.model == "mixed" else key[1]
        comps[key] = mor.maps[deg].transpose().apply(vec)
    out = CochainClass(mor.source, cls.degree, comps, model=cls.model,
                       name="%s^*(%s)" % (mor.name or "f", cls.name or "class"))
    if check and cls.is_cocycle() and not out.is_cocycle():
        raise NotCocycle("pullback of a cocycle failed to be closed")
    return out


def pushforward(mor, cls, check=True):
    """Apply a cochain morphism to an element class on its source."""
    if mor.source.orientation != COCHAIN:
        raise ShapeMismatch("pushforward needs a cochain-oriented morphism")
    comps = {}
    for key, vec in cls.components.items():
        deg = key if cls.model == "mixed" else key[1]
        comps[key] = mor.maps[deg].apply(vec)
    out = CochainClass(mor.target, cls.degree, comps, model=cls.model,
                       name="%s_*(%s)" % (mor.name or "f", cls.name or "class"))
    if check and cls.is_cocycle() and not out.is_cocycle():
        raise NotCocycle("image of a cocycle failed to be closed")
    return out


def cup_with_trace(cls, trace, mor, check=True):
    """Pair a cochain-side class against a trace through a characteristic map.

    Pulls the evaluation-against-the-trace covector on the diag Hom target
    back along the morphism; the result is a single-degree cyclic cocycle
    on the morphism's source.
    """
    if not cls.is_single_degree():
        raise NotCocycle("cup products need a single-degree representative")
    p = cls.degree
    cov = evaluation_covector(mor.target, p, trace.extended(p),
                              cls.representative)
    psi = mor.maps[p].transpose().apply(cov)
    return from_cyclic_cocycle(mor.source, p, psi, check=check,
                               name="cup(%s)" % (cls.name or "class"))


def crossed_cup_with_trace(cls, trace, beta_mor, check=True):
    """HC^q_Hopf(B,M) (x) trace on A -> HC^q(A x| B), via beta."""
    out = cup_with_trace(cls, trace, beta_mor, check=check)
    out.name = "crossed_cup(%s)" % (cls.name or "class")
    return out


def crossed_cocup_with_invariant(cls, g0, xi_mor, check=True):
    """Evaluate a Cyc(Z |x C) cocycle at a degeneracy-extended invariant.

    g0 must be a tau-fixed element of C_0(Z,M); its extension sigma_0^p g0
    is plugged into xi_p(class), landing in C_p(C,M).
    """
    x_mod = xi_mor.target.meta["x"]
    y_mod = xi_mor.target.meta["y"]
    f = x_mod.field
    if not _vec_eq(f, x_mod.tau(0).apply(g0), dict(g0)):
        raise NotCocycle("the degree-0 element is not tau-invariant")
    if not cls.is_single_degree():
        raise NotCocycle("evaluation needs a single-degree representative")
    p = cls.degree
    g = dict(g0)
    for k in range(p):
        g = x_mod.degeneracies[(k, 0)].apply(g)
    flat = xi_mor.maps[p].apply(cls.representative)
    dim_x = x_mod.spaces[p]
    out = {}
    for idx, v in flat.items():
        yi, xj = divmod(idx, dim_x)
        if xj in g:
            add_into(f, out, yi, f.mul(v, g[xj]))
    return from_cyclic_cocycle(y_mod, p, out, check=check,
                               name="cocup(%s)" % (cls.name or "class"))


def cm_char_map(trace, pairing, cls, alpha_mor=None, buffer=2):
    """The trace characteristic map, computed twice and compared.

    Route one evaluates the defining formula directly: the class is lifted
    to the cover, each lift term phi-multiplies into the algebra, and the
    ambient trace closes it off.  Route two pulls the evaluation covector
    back along alpha.  The two covectors must agree entry for entry.
    """
    if not cls.is_single_degree():
        raise NotCocycle("cm_char_map needs a single-degree representative")
    p = cls.degree
    x_mod = cls.module
    y_mod = trace.complex
    if alpha_mor is None:
        yt, _, _ = _tower(y_mod)
        alpha_mor = alpha(pairing, yt.meta["mod"], min(x_mod.N, y_mod.N),
                          x_mod=x_mod, y_mod=y_mod, buffer=buffer)
    f = pairing.field
    # route two: pullback of the evaluation covector
    cov = evaluation_covector(alpha_mor.target, p, trace.extended(p),
                              cls.representative)
    route2 = alpha_mor.maps[p].transpose().apply(cov)
    # route one: the displayed formula, evaluated term by term
    _, _, sx = _tower(x_mod)
    lift = sx[p].apply(cls.representative)
    t_amb = trace.ambient(0)
    alg = pairing.alg.algebra
    da = alg.dim
    dc = pairing.coalg.coalgebra.dim
    xt, _, _ = _tower(x_mod)
    dm = xt.meta["m_dim"]
    xdims = [dc] * (p + 1) + [dm]
    route1 = {}
    for col in range(da ** (p + 1)):
        avec = unflatten(col, [da] * (p + 1))
        val = f.zero
        for idx, coef in lift.items():
            t = unflatten(idx, xdims)
            cur = dict(pairing.phi[(t[0], avec[0])])
            for i in range(1, p + 1):
                if not cur:
                    break
                cur = alg.multiply(cur, pairing.phi[(t[i], avec[i])])
            for ai, av in cur.items():
                tv = t_amb.get(ai * dm + t[p + 1])
                if tv is not None:
                    val = f.add(val, f.mul(coef, f.mul(av, tv)))
        if not f.is_zero(val):
            route1[col] = val
    if not _vec_eq(f, route1, route2):
        raise AgreementFailure("direct formula and pullback route disagree "
                               "at degree %d" % p)
    return from_cyclic_cocycle(alpha_mor.source, p, route1,
                               name="gamma(%s)" % (cls.name or "class"))


# ---------------------------------------------------------------------------
# the diagonal tensor epimorphism check


def diag_tensor_epi_check(ma, ma2, m, m2, N, buffer=2, drop_factor=False):
    """Surjectivity of Q(H(x)H; A(x)A', M(x)M') onto diag(Q (x) Q').

    Builds the factor-reshuffling map on covers, pushes it through the
    three quotient towers, and certifies degreewise surjectivity by rank
    in degrees 0..N.  drop_factor corrupts the reshuffle by collapsing the
    second factor onto a single basis line (a forced negative control).
    """
    f = ma.field
    hh = tensor_hopf(ma.hopf, ma2.hopf)
    mat = tensor_module_algebra(ma, ma2, hh)
    mmt = tensor_modcomodule(m, m2, hh)
    q12, q1, q2 = (hopf_cyclic_complex(a, c, N, buffer=buffer, level="Q")
                   for a, c in ((mat, mmt), (ma, m), (ma2, m2)))
    _, p12, s12 = _tower(q12)
    _, p1, _ = _tower(q1)
    _, p2, _ = _tower(q2)
    da, da2 = ma.algebra.dim, ma2.algebra.dim
    dm, dm2 = m.dim, m2.dim
    report = {"degrees": {}, "surjective": True, "descends": True,
              "corrupted": bool(drop_factor)}
    for n in range(N + 1):
        d1 = da ** (n + 1) * dm
        d2 = da2 ** (n + 1) * dm2
        # (a_0 a'_0) .. (a_n a'_n) (m m') -> a_0 .. a_n m (x) a'_0 .. a'_n m'
        dims = [da, da2] * (n + 1) + [dm, dm2]
        order = tuple(range(0, 2 * n + 4, 2)) + tuple(range(1, 2 * n + 4, 2))
        perm = permute(Matrix.identity(f, d1 * d2), dims, order)
        if drop_factor:
            collapse = Matrix(f, d2, d2, {(0, j): f.one for j in range(d2)})
            perm = slot(collapse, d1, 1) * perm
        down = p1[n].kron(p2[n]) * perm
        phi = down * s12[n]
        if phi * p12[n] != down:
            report["descends"] = False
        r = phi.rank()
        tgt = q1.spaces[n] * q2.spaces[n]
        report["degrees"][n] = {"rank": r, "target_dim": tgt}
        if r < tgt:
            report["surjective"] = False
    return report
