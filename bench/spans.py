"""In-memory span recorder, and the wrappers that trace hopfcyclic's layers.

Spans are recorded from outside the package.  `instrument` replaces each
public function or method named in SPANS with a wrapper that records one
span per call, as (id, name, start ns, end ns, parent id), and each
field method named in COUNTED with a wrapper that only counts calls.  A
function imported elsewhere with `from .x import f` is replaced in every
hopfcyclic module that holds it; methods are replaced on the class.  The
originals come back when the `instrument` block ends.

A span's self time is its duration minus the durations of its direct
child spans.  Wall-clock spans only: cProfile distorts this code ~5x.
"""

import contextlib
import functools
import itertools
import sys
import time

# (span name, module, attribute); "Class.method" names a method
SPANS = [
    ("linalg.inverse", "linalg", "Matrix.inverse"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.kernel_basis", "linalg", "Matrix.kernel_basis"),
    ("linalg.mul", "linalg", "Matrix.__mul__"),
    ("linalg.apply", "linalg", "Matrix.apply"),
    ("linalg.pow_int", "linalg", "Matrix.pow_int"),
    ("linalg.rank", "linalg", "Matrix.rank"),
    ("linalg.add_vector", "linalg", "Subspace.add_vector"),
    ("linalg.reduce", "linalg", "Subspace.reduce"),
    ("linalg.quotient_space", "linalg", "quotient_space"),
    ("linalg.operator_closure", "linalg", "operator_closure"),
    ("hopf.check_structure", "hopf", "check_structure"),
    ("cyclic.cover", "cyclic", "cover_coalgebra"),
    ("cyclic.cover", "cyclic", "cover_algebra"),
    ("cyclic.compute_J", "cyclic", "compute_J"),
    ("cyclic.quotient_module", "cyclic", "quotient_module"),
    ("cyclic.coinvariants", "cyclic", "coinvariants"),
    ("cyclic.cyc_algebra", "cyclic", "cyc_algebra"),
    ("cyclic.check_axioms", "cyclic", "check_axioms"),
    ("cyclic.verify", "cyclic", "ModuleMorphism.verify"),
    ("homology.mixed_of_cyclic", "homology", "mixed_of_cyclic"),
    ("homology.cyclic_bicomplex", "homology", "cyclic_bicomplex"),
    ("homology.cohomology", "homology", "cohomology"),
    ("homology.compare_models", "homology", "compare_models"),
    ("pairings.alpha", "pairings", "alpha"),
    ("pairings.beta", "pairings", "beta"),
    ("pairings.xi", "pairings", "xi"),
    ("pairings.star", "pairings", "star"),
    ("pairings.cm_char_map", "pairings", "cm_char_map"),
    ("pairings.epi_check", "pairings", "diag_tensor_epi_check"),
    ("io.parse_input", "io", "parse_input"),
]

# field methods whose calls are counted, without spans
COUNTED = [("fields.%s.calls" % meth, meth) for meth in ("mul", "add", "inv")]
FIELD_CLASSES = ("RationalField", "PrimeField")


def _module_dims(mod):
    return sum(mod.spaces.values())


# span name -> (counter, size of the returned object)
RESULT_SIZES = {
    "cyclic.cover": ("cyclic.T_dim", _module_dims),
    "cyclic.compute_J": ("cyclic.J_dim",
                         lambda j: sum(s.dim for s in j.values())),
    "cyclic.quotient_module": ("cyclic.Q_dim", _module_dims),
    "cyclic.coinvariants": ("cyclic.C_dim", _module_dims),
    "linalg.add_vector": ("linalg.add_vector.grown", int),
}


class Recorder:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.stack = [None]
        self.counts = {}
        self._ids = itertools.count()

    def reset(self):
        del self.spans[:]
        for key in self.counts:
            self.counts[key] = 0

    def span(self, name, fn, size=None):
        """fn wrapped to record one span per call.

        size, if given, is (counter, measure): measure(result) is added to
        that counter after each call."""
        spans, stack, clock, ids = self.spans, self.stack, self.clock, self._ids
        counts = self.counts
        if size:
            counter, measure = size
            counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if size:
                counts[counter] += measure(result)
            return result
        return wrapper

    def counter(self, name, fn):
        """fn wrapped to count its calls under name."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def self_times(self):
        """name -> (calls, self seconds, inclusive seconds)."""
        children = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0) + end - start
        out = {}
        for sid, name, start, end, _ in self.spans:
            calls, own, total = out.get(name, (0, 0, 0))
            dur = end - start
            out[name] = (calls + 1, own + dur - children.get(sid, 0),
                         total + dur)
        return {name: (calls, own / 1e9, total / 1e9)
                for name, (calls, own, total) in out.items()}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hopfcyclic"
                                    or name.startswith("hopfcyclic."))]


@contextlib.contextmanager
def instrument(rec):
    """Wrap every SPANS and COUNTED target for the duration of the block."""
    patches = []   # (owner, attribute, original)

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = _package_modules()
    for name, module, attr in SPANS:
        owner = sys.modules["hopfcyclic." + module]
        size = RESULT_SIZES.get(name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            patch(cls, meth, rec.span(name, cls.__dict__[meth], size))
            continue
        orig = getattr(owner, attr)
        wrapped = rec.span(name, orig, size)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    patch(mod, key, wrapped)
    fields = sys.modules["hopfcyclic.fields"]
    for name, meth in COUNTED:
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            patch(cls, meth, rec.counter(name, cls.__dict__[meth]))
    try:
        yield rec
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def span_names():
    return list(dict.fromkeys(name for name, _, _ in SPANS))


def metric_units(cli_jobs):
    """Every per-layer metric name -> (unit, which direction is better)."""
    out = {name: ("count", "lower") for name, _ in COUNTED}
    for name in span_names():
        out[name + ".calls"] = ("count", "lower")
        out[name + ".self_s"] = ("s", "lower")
    out["linalg.add_vector.grew_ratio"] = ("ratio", "higher")
    for key in ("T", "J", "Q", "C"):
        out["cyclic.%s_dim" % key] = ("count", "lower")
    out["cyclic.J_ratio"] = ("ratio", "lower")
    for job in cli_jobs:
        out["cli.main.%s.s" % job] = ("s", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


def layer_metrics(rec, cli_jobs):
    """Per-layer metrics of everything rec saw since its last reset.

    The harness records one span "job.<name>" around each job; the
    inclusive time of each CLI job's span is its `cli.main.<job>.s`.
    """
    times = rec.self_times()
    counts = rec.counts
    out = {}
    for name, _ in COUNTED:
        out[name] = counts.get(name, 0)
    for name in span_names():
        calls, own, _ = times.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_s"] = own
    attempts = out["linalg.add_vector.calls"]
    out["linalg.add_vector.grew_ratio"] = (
        counts.get("linalg.add_vector.grown", 0) / attempts if attempts else 0.0)
    for key in ("T", "J", "Q", "C"):
        out["cyclic.%s_dim" % key] = counts.get("cyclic.%s_dim" % key, 0)
    t_dim = out["cyclic.T_dim"]
    out["cyclic.J_ratio"] = out["cyclic.J_dim"] / t_dim if t_dim else 0.0
    for job in cli_jobs:
        out["cli.main.%s.s" % job] = times.get("job." + job, (0, 0.0, 0.0))[2]
    return out
