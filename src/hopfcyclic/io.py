"""Structure-constant files: exact parsing and deterministic serialization.

A file is a JSON document with a `kind` field selecting the structure
(hopf, algebra, module-algebra, module-coalgebra, comodule-algebra,
comodule-coalgebra, modcomodule, pairing, trace), a `field` tag ("Q" or
a prime), basis labels, and sparse tensors stored as entry lists
[indices..., numerator, denominator].  Serialization is canonical
(sorted keys, sorted entries) so round-trips are byte-identical.
"""

import json
from fractions import Fraction
from itertools import product

from .fields import QQ, GF
from .hopf import (AlgebraData, CoalgebraData, HopfAlgebraData,
                   ModuleAlgebra, ModuleCoalgebra, ComoduleAlgebra,
                   ComoduleCoalgebra, ModComodule, EquivariantPairing,
                   HopfMismatch, check_structure)
from .linalg import Matrix, SingularMatrix


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


KINDS = ("hopf", "algebra", "module-algebra", "module-coalgebra",
         "comodule-algebra", "comodule-coalgebra", "modcomodule",
         "pairing", "trace")


def _field_tag(field):
    return "Q" if field is QQ or getattr(field, "p", None) is None else field.p


def _field_from_tag(tag, what):
    if tag == "Q":
        return QQ
    why = ""
    if _is_int(tag):
        try:
            return GF(tag)
        except ValueError as e:
            why = " (%s)" % e
    raise ParseError("%s: field must be \"Q\" or a prime, got %r%s"
                     % (what, tag, why))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _num_den(field, v):
    if field is QQ or getattr(field, "p", None) is None:
        fr = Fraction(v)
        return fr.numerator, fr.denominator
    return int(v), 1


def _value(field, num, den):
    if field is QQ or getattr(field, "p", None) is None:
        return Fraction(num, den)
    p = field.p
    d = den % p
    if d == 0:
        raise ParseError("denominator %d is zero mod %d" % (den, p))
    return (num % p) * pow(d, p - 2, p) % p


def _entries_from_vec(field, vec):
    return sorted([int(i)] + list(_num_den(field, v)) for i, v in vec.items())


def _entries_from_keyed(field, mapping, outer_arity):
    """mapping: outer-key (int or tuple) -> {inner-key (int or tuple): value}."""
    rows = []
    for outer, inner in mapping.items():
        ok = outer if isinstance(outer, tuple) else (outer,)
        if len(ok) != outer_arity:
            raise ValueError("outer key arity mismatch")
        for ik, v in inner.items():
            it = ik if isinstance(ik, tuple) else (ik,)
            rows.append(list(ok) + list(it) + list(_num_den(field, v)))
    return sorted(rows)


def _read_rows(field, rows, bounds, what):
    """{index tuple: value} from entry rows [i_1, ..., i_k, num, den].

    bounds[t] is the size of the basis index t ranges over (None: any
    index >= 0).  A malformed row, or one repeating an earlier row's
    indices, raises ParseError naming it.
    """
    if not isinstance(rows, list):
        raise ParseError("%s: expected a list of entries, got %r" % (what, rows))
    out = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != len(bounds) + 2:
            raise ParseError("%s entry %r: expected %d indices, a numerator "
                             "and a denominator" % (what, row, len(bounds)))
        *idx, num, den = row
        if not all(_is_int(i) and 0 <= i and (b is None or i < b)
                   for i, b in zip(idx, bounds)):
            raise ParseError("%s entry %r: indices must be integers in %s"
                             % (what, row, bounds))
        if not (_is_int(num) and _is_int(den)) or den == 0:
            raise ParseError("%s entry %r: numerator and denominator must be "
                             "integers, the denominator nonzero" % (what, row))
        if tuple(idx) in out:
            raise ParseError("%s entry %r: indices %s repeat an earlier entry"
                             % (what, row, idx))
        out[tuple(idx)] = _value(field, num, den)
    return out


def _vector(field, rows, dim, what):
    return {i: v for (i,), v in _read_rows(field, rows, [dim], what).items()}


def _keyed(field, rows, outer, inner, what):
    """{outer key: {inner key: value}} with every outer key present.

    A key with a single index is a bare int, otherwise a tuple.
    """
    def key(idx):
        return idx[0] if len(idx) == 1 else idx

    k = len(outer)
    out = {key(o): {} for o in product(*map(range, outer))}
    for idx, v in _read_rows(field, rows, outer + inner, what).items():
        out[key(idx[:k])][key(idx[k:])] = v
    return out


# ---------------------------------------------------------------------------
# documents from objects


def _algebra_doc(a):
    return {
        "basis": list(a.labels),
        "mul": _entries_from_keyed(a.field, a.mul, 2),
        "unit": _entries_from_vec(a.field, a.unit),
    }


def _coalgebra_doc(c):
    return {
        "basis": list(c.labels),
        "comul": _entries_from_keyed(c.field, c.comul, 1),
        "counit": _entries_from_vec(c.field, c.counit),
    }


def _matrix_entries(field, mat):
    return sorted([int(i), int(j)] + list(_num_den(field, v))
                  for (i, j), v in mat.entries.items())


def to_document(obj):
    if isinstance(obj, HopfAlgebraData):
        doc = {"kind": "hopf", "field": _field_tag(obj.field),
               "name": obj.name or ""}
        doc.update(_algebra_doc(obj.algebra))
        cd = _coalgebra_doc(obj.coalgebra)
        doc["comul"], doc["counit"] = cd["comul"], cd["counit"]
        doc["antipode"] = _matrix_entries(obj.field, obj.antipode)
        return doc
    if isinstance(obj, AlgebraData):
        doc = {"kind": "algebra", "field": _field_tag(obj.field), "name": ""}
        doc.update(_algebra_doc(obj))
        return doc
    if isinstance(obj, ModuleAlgebra):
        doc = {"kind": "module-algebra", "field": _field_tag(obj.field),
               "name": obj.name or "", "hopf": to_document(obj.hopf)}
        doc.update(_algebra_doc(obj.algebra))
        doc["action"] = _entries_from_keyed(obj.field, obj.action, 2)
        return doc
    if isinstance(obj, ModuleCoalgebra):
        doc = {"kind": "module-coalgebra", "field": _field_tag(obj.field),
               "name": obj.name or "", "hopf": to_document(obj.hopf)}
        doc.update(_coalgebra_doc(obj.coalgebra))
        doc["action"] = _entries_from_keyed(obj.field, obj.action, 2)
        return doc
    if isinstance(obj, ComoduleAlgebra):
        doc = {"kind": "comodule-algebra", "field": _field_tag(obj.field),
               "name": obj.name or "", "hopf": to_document(obj.hopf)}
        doc.update(_algebra_doc(obj.algebra))
        doc["coaction"] = _entries_from_keyed(obj.field, obj.coaction, 1)
        return doc
    if isinstance(obj, ComoduleCoalgebra):
        doc = {"kind": "comodule-coalgebra", "field": _field_tag(obj.field),
               "name": obj.name or "", "hopf": to_document(obj.hopf)}
        doc.update(_coalgebra_doc(obj.coalgebra))
        doc["coaction"] = _entries_from_keyed(obj.field, obj.coaction, 1)
        return doc
    if isinstance(obj, ModComodule):
        return {"kind": "modcomodule", "field": _field_tag(obj.field),
                "name": obj.name or "", "hopf": to_document(obj.hopf),
                "dim": obj.dim,
                "action": _entries_from_keyed(obj.field, obj.action, 2),
                "coaction": _entries_from_keyed(obj.field, obj.coaction, 1)}
    if isinstance(obj, EquivariantPairing):
        return {"kind": "pairing", "field": _field_tag(obj.field),
                "name": obj.name or "",
                "coalgebra_side": to_document(obj.coalg),
                "algebra_side": to_document(obj.alg),
                "phi": _entries_from_keyed(obj.field, obj.phi, 2)}
    if isinstance(obj, TraceVector):
        return {"kind": "trace", "field": _field_tag(obj.field),
                "name": obj.name or "",
                "entries": _entries_from_vec(obj.field, obj.entries)}
    raise TypeError("cannot serialize %r" % type(obj).__name__)


class TraceVector:
    """A covector on a degree-0 space, as read from a trace file."""

    def __init__(self, field, entries, name=None):
        self.field = field
        self.entries = dict(entries)
        self.name = name


def serialize(obj):
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def save(obj, path):
    with open(path, "w") as fh:
        fh.write(serialize(obj))


# ---------------------------------------------------------------------------
# objects from documents


def _need(doc, key, what):
    if key not in doc:
        raise ParseError("%s: missing field %r" % (what, key))
    return doc[key]


def _basis(doc, what):
    basis = _need(doc, "basis", what)
    if not isinstance(basis, list) or not basis:
        raise ParseError("%s: basis must be a non-empty list of labels" % what)
    return [str(b) for b in basis]


def _parse_algebra(field, doc, what):
    labels = _basis(doc, what)
    dim = len(labels)
    mul = _keyed(field, _need(doc, "mul", what), [dim, dim], [dim], what + ".mul")
    unit = _vector(field, _need(doc, "unit", what), dim, what + ".unit")
    return AlgebraData(field, dim, mul, unit, labels=labels)


def _parse_coalgebra(field, doc, what):
    labels = _basis(doc, what)
    dim = len(labels)
    comul = _keyed(field, _need(doc, "comul", what), [dim], [dim, dim],
                   what + ".comul")
    counit = _vector(field, _need(doc, "counit", what), dim, what + ".counit")
    return CoalgebraData(field, dim, comul, counit, labels=labels)


def _parse_action(field, doc, hopf_dim, dim, what):
    return _keyed(field, _need(doc, "action", what), [hopf_dim, dim], [dim],
                  what + ".action")


def _parse_coaction(field, doc, hopf_dim, dim, what):
    return _keyed(field, _need(doc, "coaction", what), [dim], [hopf_dim, dim],
                  what + ".coaction")


def _nested(doc, key, field, what):
    """The sub-document doc[key], which must be over the enclosing field."""
    obj = parse_document(_need(doc, key, what), what + "." + key)
    if obj.field != field:
        raise ParseError("%s.%s: field %r differs from the enclosing %r"
                         % (what, key, obj.field, field))
    return obj


def parse_document(doc, what="input"):
    if not isinstance(doc, dict):
        raise ParseError("%s: top level must be an object" % what)
    kind = _need(doc, "kind", what)
    if kind not in KINDS:
        raise ParseError("%s: unknown kind %r (expected one of %s)"
                         % (what, kind, ", ".join(KINDS)))
    field = _field_from_tag(_need(doc, "field", what), what)
    name = doc.get("name") or None
    if kind == "trace":
        return TraceVector(field, _vector(
            field, _need(doc, "entries", what), None, what + ".entries"),
            name=name)
    if kind == "pairing":
        mc = _nested(doc, "coalgebra_side", field, what)
        ma = _nested(doc, "algebra_side", field, what)
        if not isinstance(mc, ModuleCoalgebra) or not isinstance(ma, ModuleAlgebra):
            raise ParseError("%s: pairing sides must be a module-coalgebra "
                             "and a module-algebra" % what)
        dc, da = mc.coalgebra.dim, ma.algebra.dim
        phi = _keyed(field, _need(doc, "phi", what), [dc, da], [da], what + ".phi")
        try:
            return EquivariantPairing(mc, ma, phi, name=name)
        except HopfMismatch as e:
            raise ValidationError("%s: %s" % (what, e))
    if kind == "algebra":
        return _parse_algebra(field, doc, what)
    if kind == "hopf":
        alg = _parse_algebra(field, doc, what)
        co = _parse_coalgebra(field, doc, what)
        s = _read_rows(field, _need(doc, "antipode", what), [alg.dim, alg.dim],
                       what + ".antipode")
        try:
            return HopfAlgebraData(alg, co, Matrix(field, alg.dim, alg.dim, s),
                                   name=name)
        except SingularMatrix:
            raise ValidationError("%s: the antipode is not invertible" % what)
    hopf = _nested(doc, "hopf", field, what)
    if not isinstance(hopf, HopfAlgebraData):
        raise ParseError("%s.hopf: expected kind \"hopf\"" % what)
    if kind == "modcomodule":
        dim = _need(doc, "dim", what)
        if not _is_int(dim) or dim < 1:
            raise ParseError("%s: dim must be a positive integer, got %r"
                             % (what, dim))
        return ModComodule(hopf, dim,
                           _parse_action(field, doc, hopf.dim, dim, what),
                           _parse_coaction(field, doc, hopf.dim, dim, what),
                           name=name)
    if kind == "module-algebra":
        alg = _parse_algebra(field, doc, what)
        return ModuleAlgebra(hopf, alg,
                             _parse_action(field, doc, hopf.dim, alg.dim, what),
                             name=name)
    if kind == "module-coalgebra":
        co = _parse_coalgebra(field, doc, what)
        return ModuleCoalgebra(hopf, co,
                               _parse_action(field, doc, hopf.dim, co.dim, what),
                               name=name)
    if kind == "comodule-algebra":
        alg = _parse_algebra(field, doc, what)
        return ComoduleAlgebra(hopf, alg,
                               _parse_coaction(field, doc, hopf.dim, alg.dim,
                                               what),
                               name=name)
    co = _parse_coalgebra(field, doc, what)
    return ComoduleCoalgebra(hopf, co,
                             _parse_coaction(field, doc, hopf.dim, co.dim, what),
                             name=name)


def parse_string(text, what="input", validate=True):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("%s: line %d column %d: %s"
                         % (what, e.lineno, e.colno, e.msg))
    obj = parse_document(doc, what)
    if validate and not isinstance(obj, TraceVector):
        report = check_structure(obj)
        if report:
            raise ValidationError("%s: %s" % (what, "; ".join(report)))
    return obj


def parse_input(path, validate=True):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError("%s: %s" % (path, e.strerror or e))
    return parse_string(text, what=str(path), validate=validate)
