"""The eager descent, the reference that the package's quotients are
tested against, and the reader that builds every map of a module.

`cyclic._descend` forms the spaces, projections and sections of a
quotient at once and induces each structure map, after proving that it
descends, on the map's first read.  `eager_descend` below is the form it
had before: every face, degeneracy, tau and L_h is checked and induced
at construction, in that order, against the subspaces as they are then.
`eager_quotient_module` and `eager_coinvariants` are `quotient_module`
and `coinvariants` over it, except that `eager_coinvariants` spans H+Q
from the image of L_h - eps(h) for every basis element h, where
`coinvariants` reads the algebra generators' L_g only.
"""

from hopfcyclic.cyclic import DescentFailure, ParaCyclicModule
from hopfcyclic.linalg import Matrix, Subspace, quotient_space


def read_every_map(x):
    """Build every structure map of x in the order the eager descent formed
    them: the faces, the degeneracies, tau, then the L_h; returns x."""
    for maps in (x.faces, x.degeneracies, x.cyclic, x.h_action or {}):
        list(maps.values())
    return x


def eager_descend(t, sub, keep_h=True, name=None):
    f = t.field
    proj, sect, qdims, whole = {}, {}, {}, set()
    for n in sorted(t.spaces):
        s = sub.get(n) or Subspace(f, t.spaces[n])
        qdims[n], proj[n], sect[n] = quotient_space(t.spaces[n], s)
        if not s.dim:
            whole.add(n)

    def induce(m, tgt, key):
        kind, src, _ = key
        now = m, sub.get(src), sub.get(tgt)
        proved = t._certified.get(key, ())
        if not (proved and all(a is b for a, b in zip(proved, now))
                and proved[3] == (now[1].dim, now[2].dim)):
            tag = "tau_%d" % src if kind == "tau" else "%s (%d,%d)" % key
            for b in sub.get(src, Subspace(f, t.spaces[src])).lifts():
                if proj[tgt].apply(m.apply(b))[0]:
                    raise DescentFailure("%s does not preserve the subspace "
                                         "(degree %d)" % (tag, src))
        if src not in whole:
            m = m * sect[src]
        return m if tgt in whole else proj[tgt] * m

    faces = {k: induce(m, k[0] + t.step, ("face", *k))
             for k, m in t.faces.items()}
    degs = {k: induce(m, k[0] - t.step, ("degeneracy", *k))
            for k, m in t.degeneracies.items()}
    taus = {n: induce(t.tau(n), n, ("tau", n, 0)) for n in t.spaces}
    ha = None
    if keep_h and t.h_action:
        ha = {k: induce(m, k[0], ("L_h", *k)) for k, m in t.h_action.items()}
    meta = {"parent": t, "proj": proj, "sect": sect}
    return ParaCyclicModule(f, t.orientation, qdims, faces, degs, taus,
                            h_action=ha, hopf=t.hopf,
                            name=name or ("Q(%s)" % (t.name or "T")), meta=meta)


def eager_quotient_module(t, j):
    return eager_descend(t, j, keep_h=True)


def eager_coinvariants(q, name=None):
    f, hopf = q.field, q.hopf
    sub = {}
    for n in sorted(q.spaces):
        s = Subspace(f, q.spaces[n])
        for h in range(hopf.dim):
            eps = hopf.coalgebra.counit.get(h, f.zero)
            g = Matrix.lincomb([(1, q.act_h(n, h)),
                                (-eps, Matrix.identity(f, q.spaces[n]))])
            for col in g.columns(lifted=True):
                if col[0]:
                    s.add_vector(col)
        sub[n] = s
    return eager_descend(q, sub, keep_h=False,
                         name=name or "C(%s)" % (q.name or "Q"))
