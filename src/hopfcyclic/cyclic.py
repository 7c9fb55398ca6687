"""(Para)(co)cyclic modules as truncated families of explicit matrices.

A chain-oriented module has faces X_n -> X_{n-1} (j = 0..n), degeneracies
X_n -> X_{n+1} (j = 0..n) and invertible cyclic operators tau_n.  A
cochain-oriented module has cofaces X_n -> X_{n+1} (j = 0..n+1) and
codegeneracies X_n -> X_{n-1} (i = 0..n-1).  Higher structure maps are
always produced from (d_0, s_0, tau) by conjugation with tau powers, with
the exponent signs depending on the orientation:

    chain:    d_j = tau^j  d_0 tau^-j     s_j = tau^j  s_0 tau^-j
    cochain:  d_j = tau^-j d_0 tau^j      s_i = tau^-i s_0 tau^i

Everything is verified after the fact by check_axioms; nothing relies on
the conventions being right silently.
"""

import warnings

from .linalg import (Matrix, Subspace, ShapeMismatch, SingularMatrix,
                     quotient_space, operator_closure, add_into)
from .tensors import build_matrix, flatten, unflatten, prod
from .hopf import (ModuleCoalgebra, CompatibilityFailure, check_sayd,
                   check_comodule_coalgebra, require_same_hopf)

CHAIN = "chain"
COCHAIN = "cochain"


class InvertibilityFailure(Exception):
    pass


class NotSAYD(Exception):
    pass


class DescentFailure(Exception):
    pass


class UnstableTruncation(UserWarning):
    pass


class ParaCyclicModule:
    """Truncated graded module with explicit structure matrices.

    spaces: degree -> dimension, degrees 0..N contiguous.
    faces/degeneracies keyed by (source_degree, index); cyclic by degree.
    h_action, when present, is keyed by (degree, hopf_basis_index).
    """

    def __init__(self, field, orientation, spaces, faces, degeneracies,
                 cyclic_ops, h_action=None, hopf=None, name=None, meta=None):
        if orientation not in (CHAIN, COCHAIN):
            raise ValueError("orientation must be chain or cochain")
        self.field = field
        self.orientation = orientation
        self.spaces = dict(spaces)
        self.N = max(self.spaces)
        self.faces = dict(faces)
        self.degeneracies = dict(degeneracies)
        self.cyclic = dict(cyclic_ops)
        self.h_action = dict(h_action) if h_action else None
        self.hopf = hopf
        self.name = name
        self.meta = dict(meta) if meta else {}
        self._tau_inv = {}

    def dim(self, n):
        return self.spaces[n]

    def face_indices(self, n):
        """Valid face indices with source degree n (empty if out of range)."""
        if self.orientation == CHAIN:
            return range(n + 1) if n >= 1 else range(0)
        return range(n + 2) if n + 1 <= self.N else range(0)

    def degeneracy_indices(self, n):
        if self.orientation == CHAIN:
            return range(n + 1) if n + 1 <= self.N else range(0)
        return range(n) if n >= 1 else range(0)

    def tau(self, n):
        return self.cyclic[n]

    def tau_inv(self, n):
        if n not in self._tau_inv:
            try:
                self._tau_inv[n] = self.cyclic[n].inverse()
            except SingularMatrix:
                raise InvertibilityFailure("tau_%d is not invertible" % n)
        return self._tau_inv[n]

    def tau_power(self, n, k):
        if k >= 0:
            return self.cyclic[n].pow_int(k)
        return self.tau_inv(n).pow_int(-k)

    def T(self, n):
        """The para-cyclic twist tau_n^{n+1}."""
        return self.tau_power(n, n + 1)

    def is_cyclic(self):
        f = self.field
        for n in sorted(self.spaces):
            if self.T(n) != Matrix.identity(f, self.spaces[n]):
                return False
        return True

    def act_h(self, n, h):
        return self.h_action[(n, h)]

    def dims(self):
        return {n: self.spaces[n] for n in sorted(self.spaces)}

    def __repr__(self):
        return "<%s %s N=%d dims=%s>" % (
            self.orientation, self.name or "module", self.N,
            [self.spaces[n] for n in sorted(self.spaces)])


class ModuleMorphism:
    """Degreewise linear map between two modules of the same orientation."""

    def __init__(self, source, target, maps, name=None):
        if source.orientation != target.orientation:
            raise ShapeMismatch("morphism between different orientations")
        self.source = source
        self.target = target
        self.maps = dict(maps)
        self.name = name

    def verify(self):
        """Exact commutation with every shared structure operator."""
        bad = []
        x, y = self.source, self.target
        degs = sorted(set(self.maps) & set(x.spaces) & set(y.spaces))
        for n in degs:
            fn = self.maps[n]
            for j in x.face_indices(n):
                m = n - 1 if x.orientation == CHAIN else n + 1
                if m not in self.maps:
                    continue
                if self.maps[m] * x.faces[(n, j)] != y.faces[(n, j)] * fn:
                    bad.append("face (%d,%d)" % (n, j))
            for i in x.degeneracy_indices(n):
                m = n + 1 if x.orientation == CHAIN else n - 1
                if m not in self.maps:
                    continue
                if self.maps[m] * x.degeneracies[(n, i)] != y.degeneracies[(n, i)] * fn:
                    bad.append("degeneracy (%d,%d)" % (n, i))
            if fn * x.cyclic[n] != y.cyclic[n] * fn:
                bad.append("cyclic %d" % n)
        return bad


def transpose_module(x):
    """Degreewise linear dual: transposes every structure matrix.

    Exchanges the chain and cochain orientations with identical indexing.
    """
    orient = COCHAIN if x.orientation == CHAIN else CHAIN
    faces = {}
    degs = {}
    if x.orientation == CHAIN:
        # d_j: X_n -> X_{n-1} transposes to a coface X*_{n-1} -> X*_n
        for (n, j), m in x.faces.items():
            faces[(n - 1, j)] = m.transpose()
        for (n, i), m in x.degeneracies.items():
            degs[(n + 1, i)] = m.transpose()
    else:
        for (n, j), m in x.faces.items():
            faces[(n + 1, j)] = m.transpose()
        for (n, i), m in x.degeneracies.items():
            degs[(n - 1, i)] = m.transpose()
    taus = {n: m.transpose() for n, m in x.cyclic.items()}
    return ParaCyclicModule(x.field, orient, dict(x.spaces), faces, degs, taus,
                            name="dual*(%s)" % (x.name or "X"),
                            meta={"kind": "transpose", "parent": x})


# ---------------------------------------------------------------------------
# axiom checking


def check_axioms(x):
    """Every violated simplicial/para-cyclic identity, as strings.

    A chain module is checked through its degreewise dual: each chain
    identity is the transpose of a cochain identity of transpose_module(x),
    and its failures are reported as those, prefixed "dual: ".
    """
    if x.orientation == CHAIN:
        return ["dual: " + b for b in _cochain_violations(transpose_module(x))]
    return _cochain_violations(x)


def _cochain_violations(x):
    f = x.field
    bad = []
    degs = sorted(x.spaces)
    for n in degs:
        try:
            x.tau_inv(n)
        except InvertibilityFailure:
            bad.append("InvertibilityFailure: tau_%d" % n)
    if bad:
        return bad

    def face(n, j):
        return x.faces[(n, j)]

    def degen(n, i):
        return x.degeneracies[(n, i)]

    for n in degs:
        # d^j d^i = d^i d^{j-1}  (i < j), X_n -> X_{n+2}
        if n + 2 <= x.N:
            for j in range(n + 3):
                for i in range(min(j, n + 2)):
                    if face(n + 1, j) * face(n, i) != face(n + 1, i) * face(n, j - 1):
                        bad.append("d^%d d^%d != d^%d d^%d at n=%d" % (j, i, i, j - 1, n))
        # s^j s^i = s^i s^{j+1}  (i <= j), X_n -> X_{n-2}
        if n >= 2:
            for j in range(n - 1):
                for i in range(j + 1):
                    if degen(n - 1, j) * degen(n, i) != degen(n - 1, i) * degen(n, j + 1):
                        bad.append("s^%d s^%d != s^%d s^%d at n=%d" % (j, i, i, j + 1, n))
        # s^j d^i relations (both X_n -> X_n)
        if n + 1 <= x.N:
            ident = Matrix.identity(f, x.spaces[n])
            for i in range(n + 2):
                for j in range(n + 1):
                    lhs = degen(n + 1, j) * face(n, i)
                    if i == j or i == j + 1:
                        if lhs != ident:
                            bad.append("s^%d d^%d != id at n=%d" % (j, i, n))
                    elif i < j:
                        if n >= 1 and lhs != face(n - 1, i) * degen(n, j - 1):
                            bad.append("s^%d d^%d != d^%d s^%d at n=%d" % (j, i, i, j - 1, n))
                    else:
                        if n >= 1 and lhs != face(n - 1, i - 1) * degen(n, j):
                            bad.append("s^%d d^%d != d^%d s^%d at n=%d" % (j, i, i - 1, j, n))
        # tau relations: tau d^{j+1} = d^j tau, tau s^{i+1} = s^i tau
        if n + 1 <= x.N:
            for j in range(n + 1):
                if x.tau(n + 1) * face(n, j + 1) != face(n, j) * x.tau(n):
                    bad.append("tau d^%d != d^%d tau at n=%d" % (j + 1, j, n))
        if n >= 1:
            for i in range(n - 1):
                if x.tau(n - 1) * degen(n, i + 1) != degen(n, i) * x.tau(n):
                    bad.append("tau s^%d != s^%d tau at n=%d" % (i + 1, i, n))
        # the twist T = tau^{n+1} commutes with everything
        T_n = x.T(n)
        if n + 1 <= x.N:
            for j in range(n + 2):
                if face(n, j) * T_n != x.T(n + 1) * face(n, j):
                    bad.append("T does not commute with d^%d at n=%d" % (j, n))
        if n >= 1:
            for i in range(n):
                if degen(n, i) * T_n != x.T(n - 1) * degen(n, i):
                    bad.append("T does not commute with s^%d at n=%d" % (i, n))
    return bad


# ---------------------------------------------------------------------------
# constructors from raw (co)algebras


def constant_modules(field, N):
    """The 1-dimensional cocyclic and cyclic modules of the ground field."""
    ident = Matrix.identity(field, 1)
    spaces = {n: 1 for n in range(N + 1)}
    co_faces = {(n, j): ident for n in range(N) for j in range(n + 2)}
    co_degs = {(n, i): ident for n in range(1, N + 1) for i in range(n)}
    taus = {n: ident for n in range(N + 1)}
    k_co = ParaCyclicModule(field, COCHAIN, spaces, co_faces, co_degs, taus,
                            name="k_constant_cocyclic")
    ch_faces = {(n, j): ident for n in range(1, N + 1) for j in range(n + 1)}
    ch_degs = {(n, j): ident for n in range(N) for j in range(n + 1)}
    k_cy = ParaCyclicModule(field, CHAIN, spaces, ch_faces, ch_degs, dict(taus),
                            name="k_constant_cyclic")
    return k_co, k_cy


def cyc_algebra(a, N):
    """Classical cyclic module of a unital associative algebra."""
    f = a.field
    d = a.dim
    spaces = {n: d ** (n + 1) for n in range(N + 1)}
    faces = {}
    degeneracies = {}
    taus = {}
    for n in range(N + 1):
        dims = [d] * (n + 1)

        def rot(t):
            return {(t[n],) + t[:n]: f.one}

        taus[n] = build_matrix(f, dims, dims, rot)
        if n >= 1:
            tgt = [d] * n
            for j in range(n + 1):
                if j < n:
                    def im(t, j=j):
                        return {t[:j] + (k,) + t[j + 2:]: v
                                for k, v in a.mul[(t[j], t[j + 1])].items()}
                else:
                    def im(t, j=j):
                        return {(k,) + t[1:n]: v
                                for k, v in a.mul[(t[n], t[0])].items()}
                faces[(n, j)] = build_matrix(f, dims, tgt, im)
        if n + 1 <= N:
            tgt = [d] * (n + 2)
            for j in range(n + 1):
                def im(t, j=j):
                    return {t[:j + 1] + (u,) + t[j + 1:]: c
                            for u, c in a.unit.items()}
                degeneracies[(n, j)] = build_matrix(f, dims, tgt, im)
    return ParaCyclicModule(f, CHAIN, spaces, faces, degeneracies, taus,
                            name="Cyc(%s)" % getattr(a, "labels", ["A"])[0],
                            meta={"kind": "cyc_algebra", "factor_dim": d})


def cyc_coalgebra(c, N):
    """Classical cocyclic module of a counital coassociative coalgebra."""
    f = c.field
    d = c.dim
    spaces = {n: d ** (n + 1) for n in range(N + 1)}
    taus = {}
    d0 = {}
    s0 = {}
    for n in range(N + 1):
        dims = [d] * (n + 1)

        def rot(t):
            return {t[1:] + (t[0],): f.one}

        taus[n] = build_matrix(f, dims, dims, rot)
        if n + 1 <= N:
            def im(t):
                return {(j, k) + t[1:]: v for (j, k), v in c.comul[t[0]].items()}
            d0[n] = build_matrix(f, dims, [d] * (n + 2), im)
        if n >= 1:
            def im(t):
                e = c.counit.get(t[1], f.zero)
                return {} if f.is_zero(e) else {(t[0],) + t[2:]: e}
            s0[n] = build_matrix(f, dims, [d] * n, im)
    x = ParaCyclicModule(f, COCHAIN, spaces, {}, {}, taus,
                         name="Cyc(coalgebra)",
                         meta={"kind": "cyc_coalgebra", "factor_dim": d})
    _fill_by_conjugation(x, d0, s0)
    return x


def _fill_by_conjugation(x, d0, s0):
    """Populate all faces/degeneracies from (d_0, s_0) and tau.

    Chain: the j-th map is tau^j m tau^-j; cochain: tau^-j m tau^j.  Each
    is the previous one conjugated once more, so no power is formed.
    """
    chain = x.orientation == CHAIN

    def fill(out, maps, tgt, count):
        for n, m in maps.items():
            for j in range(count(n)):
                if j:
                    m = (x.tau(tgt(n)) * m * x.tau_inv(n) if chain
                         else x.tau_inv(tgt(n)) * m * x.tau(n))
                out[(n, j)] = m

    if chain:
        fill(x.faces, d0, lambda n: n - 1, lambda n: n + 1)
        fill(x.degeneracies, s0, lambda n: n + 1, lambda n: n + 1)
    else:
        fill(x.faces, d0, lambda n: n + 1, lambda n: n + 2)
        fill(x.degeneracies, s0, lambda n: n - 1, lambda n: n)


# ---------------------------------------------------------------------------
# cover complexes with coefficients


def _diagonal_action(hopf, dims, factor_act, mod, m_dim):
    """Matrices of the diagonal H-action on X^{(x)k} (x) M per basis element.

    factor_act(h_idx, x_idx) -> dict for the X factors; mod acts on the last
    slot.  Returns {h_basis_index: Matrix}.
    """
    f = hopf.field
    k = len(dims) - 1
    out = {}
    for h in range(hopf.dim):
        parts = hopf.sweedler({h: f.one}, k + 1)

        def im(t, parts=parts):
            total = {}
            for hs, coef in parts.items():
                terms = {(): coef}
                ok = True
                for i in range(k):
                    piece = factor_act(hs[i], t[i])
                    if not piece:
                        ok = False
                        break
                    nxt = {}
                    for key, v in terms.items():
                        for idx, w in piece.items():
                            add_into(f, nxt, key + (idx,), f.mul(v, w))
                    terms = nxt
                if not ok:
                    continue
                mpart = mod.action[(hs[k], t[k])]
                for key, v in terms.items():
                    for mi, w in mpart.items():
                        add_into(f, total, key + (mi,), f.mul(v, w))
            return total

        out[h] = build_matrix(f, dims, dims, im)
    return out


def cover_coalgebra(c, m, N):
    """Para-cocyclic cover T(C,M) = C^{(x)n+1} (x) M with diagonal H-action."""
    require_same_hopf(c.hopf, m.hopf, "coalgebra and coefficients")
    f = c.field
    hopf = c.hopf
    dc, dm = c.coalgebra.dim, m.dim
    spaces = {n: dc ** (n + 1) * dm for n in range(N + 1)}
    taus, d0, s0 = {}, {}, {}
    h_action = {}
    for n in range(N + 1):
        dims = [dc] * (n + 1) + [dm]

        def tau_im(t):
            out = {}
            for (h, mm), v in m.coaction[t[n + 1]].items():
                for cc, w in c.action[(h, t[0])].items():
                    add_into(f, out, t[1:n + 1] + (cc, mm), f.mul(v, w))
            return out

        taus[n] = build_matrix(f, dims, dims, tau_im)
        if n + 1 <= N:
            def im(t):
                return {(j, k) + t[1:]: v
                        for (j, k), v in c.coalgebra.comul[t[0]].items()}
            d0[n] = build_matrix(f, dims, [dc] * (n + 2) + [dm], im)
        if n >= 1:
            def im(t):
                e = c.coalgebra.counit.get(t[1], f.zero)
                return {} if f.is_zero(e) else {(t[0],) + t[2:]: e}
            s0[n] = build_matrix(f, dims, [dc] * n + [dm], im)
        acts = _diagonal_action(hopf, dims, lambda h, i: c.action[(h, i)], m, dm)
        for h, mat in acts.items():
            h_action[(n, h)] = mat
    x = ParaCyclicModule(f, COCHAIN, spaces, {}, {}, taus, h_action=h_action,
                         hopf=hopf, name="T(%s,%s)" % (c.name or "C", m.name or "M"),
                         meta={"kind": "cover_coalgebra", "factor_dim": dc,
                               "m_dim": dm, "coalg": c, "mod": m})
    _fill_by_conjugation(x, d0, s0)
    return x


def cover_algebra(a, m, N):
    """Para-cyclic cover T(A,M) = A^{(x)n+1} (x) M with diagonal H-action."""
    require_same_hopf(a.hopf, m.hopf, "algebra and coefficients")
    f = a.field
    hopf = a.hopf
    da, dm = a.algebra.dim, m.dim
    spaces = {n: da ** (n + 1) * dm for n in range(N + 1)}
    taus, d0, s0 = {}, {}, {}
    h_action = {}
    for n in range(N + 1):
        dims = [da] * (n + 1) + [dm]

        def tau_im(t):
            out = {}
            for (h, mm), v in m.coaction[t[n + 1]].items():
                sh = hopf.apply_antipode({h: f.one}, inverse=True)
                acted = a.act(sh, {t[n]: f.one})
                for b, w in acted.items():
                    add_into(f, out, (b,) + t[:n] + (mm,), f.mul(v, w))
            return out

        taus[n] = build_matrix(f, dims, dims, tau_im)
        if n >= 1:
            def im(t):
                return {(k,) + t[2:]: v
                        for k, v in a.algebra.mul[(t[0], t[1])].items()}
            d0[n] = build_matrix(f, dims, [da] * n + [dm], im)
        if n + 1 <= N:
            def im(t):
                return {(t[0],) + (u,) + t[1:]: cu
                        for u, cu in a.algebra.unit.items()}
            s0[n] = build_matrix(f, dims, [da] * (n + 2) + [dm], im)
        acts = _diagonal_action(hopf, dims, lambda h, i: a.action[(h, i)], m, dm)
        for h, mat in acts.items():
            h_action[(n, h)] = mat
    x = ParaCyclicModule(f, CHAIN, spaces, {}, {}, taus, h_action=h_action,
                         hopf=hopf, name="T(%s,%s)" % (a.name or "A", m.name or "M"),
                         meta={"kind": "cover_algebra", "factor_dim": da,
                               "m_dim": dm, "alg": a, "mod": m})
    _fill_by_conjugation(x, d0, s0)
    return x


# ---------------------------------------------------------------------------
# J ideal, quotient, coinvariants


def truncate(x, N):
    """Restriction of a module to degrees 0..N."""
    spaces = {n: d for n, d in x.spaces.items() if n <= N}
    faces = {(n, j): m for (n, j), m in x.faces.items()
             if n <= N and (n - 1 if x.orientation == CHAIN else n + 1) <= N}
    degs = {(n, i): m for (n, i), m in x.degeneracies.items()
            if n <= N and (n + 1 if x.orientation == CHAIN else n - 1) <= N}
    taus = {n: m for n, m in x.cyclic.items() if n <= N}
    ha = None
    if x.h_action:
        ha = {(n, h): m for (n, h), m in x.h_action.items() if n <= N}
    return ParaCyclicModule(x.field, x.orientation, spaces, faces, degs, taus,
                            h_action=ha, hopf=x.hopf, name=x.name, meta=x.meta)


def _structure_system(t):
    """All structure operators of t (plus tau inverses and L_h) as
    (source degree, target degree, matrix) triples."""
    ops = []
    for (n, j), m in t.faces.items():
        ops.append((n, n - 1 if t.orientation == CHAIN else n + 1, m))
    for (n, i), m in t.degeneracies.items():
        ops.append((n, n + 1 if t.orientation == CHAIN else n - 1, m))
    for n in t.spaces:
        ops.append((n, n, t.tau(n)))
        ops.append((n, n, t.tau_inv(n)))
    if t.h_action:
        for (n, h), m in t.h_action.items():
            ops.append((n, n, m))
    return ops


def compute_J(t, buffer=2, extra_powers=0):
    """The saturation ideal J: closure of the [L_h, tau^i] and tau^{n+1}-id
    images under all structure operators, tau inverses, and the H-action.

    The result covers every stored degree; degrees above t.N - buffer are
    truncation-affected.  Stability in the certified range is checked by
    recomputing with the top degree removed; a mismatch raises the
    UnstableTruncation warning.
    """
    if not t.h_action:
        raise ValueError("compute_J needs a module with an H-action")
    f = t.field

    def closure(mod):
        ops = _structure_system(mod)
        seeds = {}
        for n in sorted(mod.spaces):
            dim_n = mod.spaces[n]
            gens = []
            ident = Matrix.identity(f, dim_n)
            gens.append(mod.T(n) - ident)
            powers = [mod.tau_power(n, i) for i in range(1, n + 2 + extra_powers)]
            for h in range(mod.hopf.dim):
                lh = mod.act_h(n, h)
                for ti in powers:
                    gens.append(lh * ti - ti * lh)
            vecs = []
            for g in gens:
                for col in g.columns():
                    if col:
                        vecs.append(col)
            seeds[n] = vecs
        return operator_closure(f, seeds, ops, max_degree=mod.N, buffer=1)

    full = closure(t)
    if t.N >= 1 and buffer >= 1:
        shrunk = closure(truncate(t, t.N - 1))
        for n in range(0, max(t.N - buffer, 0) + 1):
            if full[n].dim != shrunk[n].dim:
                warnings.warn("J dimensions not yet stable at degree %d "
                              "(%d vs %d)" % (n, full[n].dim, shrunk[n].dim),
                              UnstableTruncation)
    return full


def _descend(t, sub, keep_h=True, name=None):
    """Quotient of t by a degreewise subspace closed under the structure maps."""
    f = t.field
    proj, sect, qdims = {}, {}, {}
    for n in sorted(t.spaces):
        s = sub.get(n) or Subspace(f, t.spaces[n])
        qdims[n], proj[n], sect[n] = quotient_space(t.spaces[n], s)

    def induce(m, src, tgt, tag):
        for b in sub.get(src, Subspace(f, t.spaces[src])).basis:
            if proj[tgt].apply(m.apply(b)):
                raise DescentFailure("%s does not preserve the subspace "
                                     "(degree %d)" % (tag, src))
        # m * sect only picks columns of m, so form it before the projection
        return proj[tgt] * (m * sect[src])

    faces = {}
    degs = {}
    for (n, j), m in t.faces.items():
        tgt = n - 1 if t.orientation == CHAIN else n + 1
        faces[(n, j)] = induce(m, n, tgt, "face (%d,%d)" % (n, j))
    for (n, i), m in t.degeneracies.items():
        tgt = n + 1 if t.orientation == CHAIN else n - 1
        degs[(n, i)] = induce(m, n, tgt, "degeneracy (%d,%d)" % (n, i))
    taus = {n: induce(t.tau(n), n, n, "tau_%d" % n) for n in t.spaces}
    ha = None
    if keep_h and t.h_action:
        ha = {(n, h): induce(m, n, n, "L_h (%d,%d)" % (n, h))
              for (n, h), m in t.h_action.items()}
    meta = {"kind": "quotient", "parent": t, "proj": proj, "sect": sect,
            "sub": dict(sub)}
    return ParaCyclicModule(f, t.orientation, qdims, faces, degs, taus,
                            h_action=ha, hopf=t.hopf,
                            name=name or ("Q(%s)" % (t.name or "T")), meta=meta)


def quotient_module(t, j):
    """Q = T/J with every structure map verified to descend."""
    return _descend(t, j, keep_h=True)


def coinvariants(q):
    """C = k (x)_H Q: quotient by span{h.x - eps(h) x}."""
    if not q.h_action:
        raise ValueError("coinvariants needs a module with an H-action")
    f = q.field
    hopf = q.hopf
    sub = {}
    for n in sorted(q.spaces):
        s = Subspace(f, q.spaces[n])
        for h in range(hopf.dim):
            eps = hopf.coalgebra.counit.get(h, f.zero)
            g = q.act_h(n, h) - Matrix.identity(f, q.spaces[n]).scale(eps)
            for col in g.columns():
                if col:
                    s.add_vector(col)
        sub[n] = s
    out = _descend(q, sub, keep_h=False, name="C(%s)" % (q.name or "Q"))
    out.meta["kind"] = "coinvariants"
    return out


def hopf_cyclic_complex(c_or_a, m, N, buffer=2, cover=None):
    """Full pipeline T -> Q = T/J -> C = k (x)_H Q for a cover complex.

    c_or_a is a ModuleCoalgebra or ModuleAlgebra; the cover is built with
    `buffer` extra degrees so that C is reliable in degrees 0..N.
    """
    if cover is None:
        build = cover_coalgebra if isinstance(c_or_a, ModuleCoalgebra) else cover_algebra
        cover = build(c_or_a, m, N + buffer)
    j = compute_J(cover, buffer=buffer)
    q = quotient_module(cover, j)
    c = coinvariants(q)
    return truncate(c, N)


# ---------------------------------------------------------------------------
# colinear-map complexes C(B,M) and C(Z,M)


def _diagonal_coaction_matrix(field, hopf, coaction, dims):
    """rho: X^{(x)k} -> H (x) X^{(x)k}, diagonal coaction, as a matrix.

    The H-legs are multiplied together left to right: the coefficient of
    h (x) (x_0...x_{k-1}) collects x^0_{[-1]} ... x^{k-1}_{[-1]} = h.
    """
    k = len(dims)
    total = prod(dims)
    ent = {}
    unit_items = tuple(hopf.unit().items())
    for col in range(total):
        t = unflatten(col, dims)
        # state: {(h_index, partial_tuple): coeff}, h accumulated by product
        part = {}
        for hu, cu in unit_items:
            part[(hu, ())] = cu
        for i in range(k):
            nxt = {}
            for (h, tup), v in part.items():
                for (hh, xx), w in coaction[t[i]].items():
                    for hk, hw in hopf.multiply({h: field.one}, {hh: field.one}).items():
                        add_into(field, nxt, (hk, tup + (xx,)),
                                 field.mul(v, field.mul(w, hw)))
            part = nxt
        for (hk, tup), v in part.items():
            add_into(field, ent, (hk * total + flatten(tup, dims), col), v)
    return Matrix(field, hopf.dim * total, total, ent)


def _colinear_subspace(field, hopf, mod, base_coaction, dims):
    """Kernel of the colinearity operator on Hom(X^{(x)k}, M).

    Hom vectors are flattened with the M index slowest: flat = m*dimX + x.
    """
    total = prod(dims)
    dm = mod.dim
    dh = hopf.dim
    rho_x = _diagonal_coaction_matrix(field, hopf, base_coaction, dims)
    # operator Hom(X, M) -> Hom(X, H (x) M)
    # term 1: f |-> rho_M o f
    op = {}
    for mi in range(dm):
        for (h, mm), v in mod.coaction[mi].items():
            for x in range(total):
                op[((h * dm + mm) * total + x, mi * total + x)] = v
    # term 2: f |-> (id_H (x) f) o rho_X, subtracted
    for (row, col), v in rho_x.entries.items():
        h, xx = divmod(row, total)
        for mi in range(dm):
            add_into(field, op, ((h * dm + mi) * total + col, mi * total + xx),
                     field.neg(v))
    return Matrix(field, dh * dm * total, dm * total, op).kernel_basis()


def _restrict(op, src_sub, tgt_sub, tag):
    """Restriction of an ambient operator to reduced-echelon subspaces."""
    field = src_sub.field
    cols = []
    for b in src_sub.basis:
        w = op.apply(b)
        if not tgt_sub.contains(w):
            raise DescentFailure("%s leaves the colinear subspace" % tag)
        cols.append({i: w[p] for i, p in enumerate(tgt_sub.pivots) if p in w})
    return Matrix.from_columns(field, tgt_sub.dim, cols)


def _twisted_precompose(field, mod, g_blocks, src_total, tgt_total):
    """Operator on Hom spaces: f |-> (x |-> sum_h act(h, f(u_h(x)))).

    g_blocks: {h: Matrix src_total x tgt_total} with G(x) = sum_h h (x) u_h(x).
    """
    dm = mod.dim
    out = Matrix(field, dm * tgt_total, dm * src_total)
    for h, g in g_blocks.items():
        act_h = Matrix(field, dm, dm, {(mm, mi): v for mi in range(dm)
                                       for mm, v in mod.action[(h, mi)].items()})
        out = out + act_h.kron(g.transpose())
    return out


def _hom_module(field, hopf, mod, base, N, orientation, name):
    """Shared construction for C(B,M) (cochain) and C(Z,M) (chain)."""
    db = base.coalgebra.dim if hasattr(base, "coalgebra") else base.algebra.dim
    dm = mod.dim
    subs = {}
    amb_total = {}
    for n in range(N + 1):
        dims = [db] * (n + 1)
        subs[n] = _colinear_subspace(field, hopf, mod, base.coaction, dims)
        amb_total[n] = prod(dims)

    ident_m = Matrix.identity(field, dm)
    taus_amb, d0_amb, s0_amb = {}, {}, {}
    for n in range(N + 1):
        dims = [db] * (n + 1)
        total = amb_total[n]
        # tau: generalized twisted precomposition
        g_blocks = {h: {} for h in range(hopf.dim)}
        for x in range(total):
            t = unflatten(x, dims)
            if orientation == COCHAIN:
                # (tau f)(b^0..b^n) = S(b^n_{(-1)}) f(b^n_{(0)}, b^0..b^{n-1})
                for (h0, bb), v in base.coaction[t[n]].items():
                    sh = hopf.apply_antipode({h0: field.one})
                    u = flatten((bb,) + t[:n], dims)
                    for h, w in sh.items():
                        add_into(field, g_blocks[h], (u, x), field.mul(v, w))
            else:
                # (tau f)(z^0..z^n) = z^0_{[-1]} f(z^1..z^n, z^0_{[0]})
                for (h, zz), v in base.coaction[t[0]].items():
                    add_into(field, g_blocks[h],
                             (flatten(t[1:] + (zz,), dims), x), v)
        g_blocks = {h: Matrix(field, total, total, e) for h, e in g_blocks.items()}
        taus_amb[n] = _twisted_precompose(field, mod, g_blocks, total, total)

        if orientation == COCHAIN and n + 1 <= N:
            # d_0 f = f o (multiply slots 0,1): precompose B^{n+2} -> B^{n+1}
            def im(t):
                return {(k,) + t[2:]: v
                        for k, v in base.algebra.mul[(t[0], t[1])].items()}
            p = build_matrix(field, [db] * (n + 2), dims, im)
            d0_amb[n] = ident_m.kron(p.transpose())
        if orientation == COCHAIN and n >= 1:
            # s_0 f = f o (insert 1_B in slot 1): precompose B^{n} -> B^{n+1}
            def im(t):
                return {(t[0],) + (u,) + t[1:]: cu
                        for u, cu in base.algebra.unit.items()}
            p = build_matrix(field, [db] * n, dims, im)
            s0_amb[n] = ident_m.kron(p.transpose())
        if orientation == CHAIN and n >= 1:
            # d_0 f = f o (comultiply slot 0): precompose Z^{n} -> Z^{n+1}
            def im(t):
                return {(j, k) + t[1:]: v
                        for (j, k), v in base.coalgebra.comul[t[0]].items()}
            p = build_matrix(field, [db] * n, dims, im)
            d0_amb[n] = ident_m.kron(p.transpose())
        if orientation == CHAIN and n + 1 <= N:
            # s_0 f = f o (counit on slot 1): precompose Z^{n+2} -> Z^{n+1}
            def im(t):
                e = base.coalgebra.counit.get(t[1], field.zero)
                return {} if field.is_zero(e) else {(t[0],) + t[2:]: e}
            p = build_matrix(field, [db] * (n + 2), dims, im)
            s0_amb[n] = ident_m.kron(p.transpose())

    # restrict the ambient generators to the colinear subspaces, then conjugate
    taus = {n: _restrict(taus_amb[n], subs[n], subs[n], "tau_%d" % n)
            for n in range(N + 1)}
    spaces = {n: subs[n].dim for n in range(N + 1)}
    d0, s0 = {}, {}
    for n, m in d0_amb.items():
        tgt = n + 1 if orientation == COCHAIN else n - 1
        d0[n] = _restrict(m, subs[n], subs[tgt], "d_0 at %d" % n)
    for n, m in s0_amb.items():
        tgt = n - 1 if orientation == COCHAIN else n + 1
        s0[n] = _restrict(m, subs[n], subs[tgt], "s_0 at %d" % n)
    x = ParaCyclicModule(field, orientation, spaces, {}, {}, taus,
                         hopf=hopf, name=name,
                         meta={"kind": "colinear_hom", "sub": subs,
                               "factor_dim": db, "mod": mod, "base": base,
                               "m_dim": dm})
    _fill_by_conjugation(x, d0, s0)
    return x


def hopf_cocyclic_comodule_algebra(b, m, N):
    """C(B,M): colinear maps B^{(x)n+1} -> M with the cocyclic structure."""
    bad = check_sayd(m)
    if bad:
        raise NotSAYD("; ".join(bad))
    return _hom_module(b.field, b.hopf, m, b, N, COCHAIN,
                       "C(%s,%s)" % (b.name or "B", m.name or "M"))


def hopf_cyclic_comodule_coalgebra(z, m, N):
    """C(Z,M): colinear maps Z^{(x)n+1} -> M with the cyclic structure."""
    bad = check_comodule_coalgebra(z)
    if bad:
        raise CompatibilityFailure("; ".join(bad))
    return _hom_module(z.field, z.hopf, m, z, N, CHAIN,
                       "C(%s,%s)" % (z.name or "Z", m.name or "M"))


# ---------------------------------------------------------------------------
# Connes duality, diag Hom, diag tensor


def cyclic_dual(x):
    """Connes' duality: cyclic <-> cocyclic on the same spaces.

    Dual faces are the original degeneracies reindexed; the missing index-0
    operator is recovered through the conjugation convention; dual tau is
    the inverse.  Applying the functor twice gives back the input.
    """
    f = x.field
    if not x.is_cyclic():
        raise InvertibilityFailure("cyclic dual of a non-cyclic module")
    spaces = dict(x.spaces)
    taus = {n: x.tau_inv(n) for n in spaces}
    if x.orientation == COCHAIN:
        # cocyclic -> cyclic: d_i := s^i (i < n), s_j := d^{j+1};
        # the last face comes from the chain conjugation d_n = tau d_{n-1} tau^{-1}
        degs = {(n, j): x.faces[(n, j + 1)]
                for n in spaces if n + 1 <= x.N for j in range(n + 1)}
        faces = {}
        for n in spaces:
            if n >= 1:
                for i in range(n):
                    faces[(n, i)] = x.degeneracies[(n, i)]
                faces[(n, n)] = x.tau_inv(n - 1) * x.degeneracies[(n, n - 1)] * x.tau(n)
        return ParaCyclicModule(f, CHAIN, spaces, faces, degs, taus,
                                hopf=x.hopf, name="dual(%s)" % (x.name or "X"),
                                meta={"kind": "dual", "parent": x})
    # cyclic -> cocyclic: d^j := s_{j-1} (j >= 1), s^i := d_i;
    # the missing coface comes from the cochain conjugation d^0 = tau d^1 tau^{-1}
    faces = {(n, j): x.degeneracies[(n, j - 1)]
             for n in spaces if n + 1 <= x.N for j in range(1, n + 2)}
    degs = {}
    for n in spaces:
        if n + 1 <= x.N:
            faces[(n, 0)] = x.tau_inv(n + 1) * x.degeneracies[(n, 0)] * x.tau(n)
        if n >= 1:
            for i in range(n):
                degs[(n, i)] = x.faces[(n, i)]
    return ParaCyclicModule(f, COCHAIN, spaces, faces, degs, taus,
                            hopf=x.hopf, name="dual(%s)" % (x.name or "X"),
                            meta={"kind": "dual", "parent": x})


def diag_hom(x, y, N=None):
    """Degreewise Hom(X_n, Y_n) with the conjugation structure.

    X and Y must have opposite orientations; the result follows Y.  Hom
    elements are matrices Y_n x X_n flattened row-major (Y index slowest).
    """
    if x.orientation == y.orientation:
        raise ShapeMismatch("diag_hom needs opposite orientations")
    f = x.field
    if N is None:
        N = min(x.N, y.N)
    spaces = {n: x.spaces[n] * y.spaces[n] for n in range(N + 1)}
    faces, degs, taus = {}, {}, {}
    out_orient = y.orientation
    for n in range(N + 1):
        taus[n] = y.tau(n).kron(x.tau(n).transpose())
        if out_orient == CHAIN:
            if n >= 1:
                for j in range(n + 1):
                    faces[(n, j)] = y.faces[(n, j)].kron(x.faces[(n - 1, j)].transpose())
            if n + 1 <= N:
                for j in range(n + 1):
                    degs[(n, j)] = y.degeneracies[(n, j)].kron(
                        x.degeneracies[(n + 1, j)].transpose())
        else:
            if n + 1 <= N:
                for j in range(n + 2):
                    faces[(n, j)] = y.faces[(n, j)].kron(x.faces[(n + 1, j)].transpose())
            if n >= 1:
                for i in range(n):
                    degs[(n, i)] = y.degeneracies[(n, i)].kron(
                        x.degeneracies[(n - 1, i)].transpose())
    return ParaCyclicModule(f, out_orient, spaces, faces, degs, taus,
                            name="diagHom(%s,%s)" % (x.name or "X", y.name or "Y"),
                            meta={"kind": "diag_hom", "x": x, "y": y})


def diag_tensor(u, v):
    """Degreewise tensor product with componentwise operators."""
    if u.orientation != v.orientation:
        raise ShapeMismatch("diag_tensor needs matching orientations")
    f = u.field
    N = min(u.N, v.N)
    spaces = {n: u.spaces[n] * v.spaces[n] for n in range(N + 1)}
    faces = {}
    degs = {}
    taus = {n: u.tau(n).kron(v.tau(n)) for n in range(N + 1)}
    for (n, j), m in u.faces.items():
        if (n, j) in v.faces and n <= N:
            tgt = n - 1 if u.orientation == CHAIN else n + 1
            if 0 <= tgt <= N:
                faces[(n, j)] = m.kron(v.faces[(n, j)])
    for (n, i), m in u.degeneracies.items():
        if (n, i) in v.degeneracies and n <= N:
            tgt = n + 1 if u.orientation == CHAIN else n - 1
            if 0 <= tgt <= N:
                degs[(n, i)] = m.kron(v.degeneracies[(n, i)])
    ha = None
    hopf = None
    if u.h_action and v.h_action:
        d2 = v.hopf.dim
        ha = {}
        for n in range(N + 1):
            for h1 in range(u.hopf.dim):
                for h2 in range(d2):
                    ha[(n, h1 * d2 + h2)] = u.act_h(n, h1).kron(v.act_h(n, h2))
    return ParaCyclicModule(f, u.orientation, spaces, faces, degs, taus,
                            h_action=ha, hopf=hopf,
                            name="diag(%s (x) %s)" % (u.name or "U", v.name or "V"),
                            meta={"kind": "diag_tensor", "u": u, "v": v,
                                  "hopf_pair": (u.hopf, v.hopf)})
