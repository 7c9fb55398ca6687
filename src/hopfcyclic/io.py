"""Structure-constant files: exact parsing and deterministic serialization.

A file is a JSON document with a `kind` field selecting the structure, a
`field` tag ("Q" or a prime), basis labels, and sparse tensors stored as
entry lists [indices..., numerator, denominator].  The kinds are hopf,
algebra, modcomodule, pairing and the four actor kinds: a module or a
comodule (the side, an `action` or a `coaction` table) over an algebra or
a coalgebra (the base).  One table, ACTORS, reads and writes all four.
Serialization is canonical (sorted keys, sorted entries) so round-trips
are byte-identical.
"""

import json
from itertools import product
from math import gcd

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


# a base's class, its table and its vector
BASES = {"algebra": (AlgebraData, "mul", "unit"),
         "coalgebra": (CoalgebraData, "comul", "counit")}
# an actor kind's class, base and side
ACTORS = {"module-algebra": (ModuleAlgebra, "algebra", "action"),
          "module-coalgebra": (ModuleCoalgebra, "coalgebra", "action"),
          "comodule-algebra": (ComoduleAlgebra, "algebra", "coaction"),
          "comodule-coalgebra": (ComoduleCoalgebra, "coalgebra", "coaction")}
# a table's outer and inner indices: d ranges over the structure's own
# basis, h over its Hopf algebra's; a vector has no inner indices
SHAPES = {"mul": ("dd", "d"), "unit": ("d", ""),
          "comul": ("d", "dd"), "counit": ("d", ""),
          "action": ("hd", "d"), "coaction": ("d", "hd")}
KINDS = ("hopf", "algebra", *ACTORS, "modcomodule", "pairing")


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


def _read_rows(field, rows, bounds, what):
    """{index tuple: value} from entry rows [i_1, ..., i_k, num, den].

    bounds[t] is the size of the basis index t ranges over.  A malformed
    row, or one repeating an earlier row's indices, raises ParseError
    naming it.
    """
    if not isinstance(rows, list):
        raise ParseError("%s: expected a list of entries, got %r" % (what, rows))
    out = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != len(bounds) + 2:
            raise ParseError("%s entry %r: expected %d indices, a numerator "
                             "and a denominator" % (what, row, len(bounds)))
        *idx, num, den = row
        if not all(_is_int(i) and 0 <= i < b for i, b in zip(idx, bounds)):
            raise ParseError("%s entry %r: indices must be integers in %s"
                             % (what, row, bounds))
        if not (_is_int(num) and _is_int(den)) or den == 0:
            raise ParseError("%s entry %r: numerator and denominator must be "
                             "integers, the denominator nonzero" % (what, row))
        if tuple(idx) in out:
            raise ParseError("%s entry %r: indices %s repeat an earlier entry"
                             % (what, row, idx))
        try:
            out[tuple(idx)] = field(num, den)
        except ZeroDivisionError:
            raise ParseError("%s entry %r: denominator %d is zero mod %d"
                             % (what, row, den, field.p))
    return out


def _keyed(field, rows, outer, inner, what):
    """{outer key: {inner key: value}} with every outer key present, or
    with no inner indices the vector {outer key: value}.

    A key with a single index is a bare int, otherwise a tuple.
    """
    def key(idx):
        return idx[0] if len(idx) == 1 else idx

    entries = _read_rows(field, rows, outer + inner, what)
    if not inner:
        return {key(idx): v for idx, v in entries.items()}
    k = len(outer)
    out = {key(o): {} for o in product(*map(range, outer))}
    for idx, v in entries.items():
        out[key(idx[:k])][key(idx[k:])] = v
    return out


# ---------------------------------------------------------------------------
# documents from objects


def _rows(field, table):
    """The sorted rows [indices..., num, den] of a vector {i: v}, a
    matrix's entries {(i, j): v} or a table {outer: {inner: v}}, each key
    an int or a tuple."""
    def key(k):
        return k if isinstance(k, tuple) else (k,)

    flat = {}
    for k, v in table.items():
        if isinstance(v, dict):
            flat.update((key(k) + key(i), w) for i, w in v.items())
        else:
            flat[key(k)] = v
    ints, d = field.integral(flat)
    return sorted([*k, x // (g := gcd(x, d)), d // g] for k, x in ints.items())


def _base_doc(obj, base):
    _, table, vector = BASES[base]
    return {"basis": list(obj.labels),
            table: _rows(obj.field, getattr(obj, table)),
            vector: _rows(obj.field, getattr(obj, vector))}


def to_document(obj):
    f = obj.field
    doc = {"field": "Q" if f == QQ else f.p,
           "name": getattr(obj, "name", None) or ""}
    if isinstance(obj, HopfAlgebraData):
        doc.update(_base_doc(obj.coalgebra, "coalgebra"))
        doc.update(_base_doc(obj.algebra, "algebra"), kind="hopf",
                   antipode=_rows(f, obj.antipode.entries))
        return doc
    if isinstance(obj, AlgebraData):
        return dict(doc, kind="algebra", **_base_doc(obj, "algebra"))
    if isinstance(obj, ModComodule):
        return dict(doc, kind="modcomodule", hopf=to_document(obj.hopf),
                    dim=obj.dim, action=_rows(f, obj.action),
                    coaction=_rows(f, obj.coaction))
    if isinstance(obj, EquivariantPairing):
        return dict(doc, kind="pairing", coalgebra_side=to_document(obj.coalg),
                    algebra_side=to_document(obj.alg), phi=_rows(f, obj.phi))
    for kind, (cls, base, side) in ACTORS.items():
        if isinstance(obj, cls):
            return dict(doc, kind=kind, hopf=to_document(obj.hopf),
                        **_base_doc(getattr(obj, base), base),
                        **{side: _rows(f, getattr(obj, side))})
    raise TypeError("cannot serialize %r" % type(obj).__name__)


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


def _table(field, doc, key, what, d, dh=None):
    """doc[key] in the shape SHAPES[key], d the size of the structure's
    basis and dh that of its Hopf algebra's."""
    size = {"d": d, "h": dh}
    outer, inner = ([size[c] for c in part] for part in SHAPES[key])
    return _keyed(field, _need(doc, key, what), outer, inner, what + "." + key)


def _parse_base(field, doc, base, what):
    cls, table, vector = BASES[base]
    labels = _basis(doc, what)
    d = len(labels)
    return cls(field, d, _table(field, doc, table, what, d),
               _table(field, doc, vector, what, d), labels=labels)


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
        return _parse_base(field, doc, "algebra", what)
    if kind == "hopf":
        alg = _parse_base(field, doc, "algebra", what)
        co = _parse_base(field, doc, "coalgebra", what)
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
                           _table(field, doc, "action", what, dim, hopf.dim),
                           _table(field, doc, "coaction", what, dim, hopf.dim),
                           name=name)
    cls, base, side = ACTORS[kind]
    b = _parse_base(field, doc, base, what)
    return cls(hopf, b, _table(field, doc, side, what, b.dim, hopf.dim),
               name=name)


def parse_string(text, what="input", validate=True):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("%s: line %d column %d: %s"
                         % (what, e.lineno, e.colno, e.msg))
    except (RecursionError, ValueError) as e:
        # nested deeper than the interpreter's stack, or an integer with
        # more digits than int() converts
        raise ParseError("%s: %s" % (what, e))
    obj = parse_document(doc, what)
    if validate:
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
    except UnicodeDecodeError as e:
        raise ParseError("%s: %s" % (path, e))
    return parse_string(text, what=str(path), validate=validate)
