"""The benchmark's three workloads: their inputs, jobs and output digests.

A workload has a set-up step, which parses and validates every input file
it reads into the fixture objects its jobs use, and a list of jobs.  A job
takes the set-up objects and returns a JSON-able digest of its output: the
exit code and the byte hash of the `--output` report for CLI jobs, and the
per-degree dimensions, cohomology tables and model verdict for library
jobs.  `bench/expected.json` holds the digests frozen from a known-good
tree; an optional oracle adds an independent check on top of it.

Jobs call the package through module attributes (`cyclic.compute_J`,
not a local alias), so the traced run's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import warnings

from hopfcyclic import cli, cyclic, homology
from hopfcyclic import io as hio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(BENCH, "expected.json")


class Job:
    def __init__(self, name, fn, cap_s, oracle=None):
        self.name = name
        self.fn = fn            # fn(env) -> digest
        self.cap_s = cap_s      # time cap in seconds
        self.oracle = oracle    # oracle(digest) -> list of problems


class Workload:
    def __init__(self, name, inputs, jobs):
        self.name = name
        self.inputs = inputs    # env key -> path relative to the repo root
        self.jobs = jobs

    def setup(self):
        """Parse and fully validate every input file the workload reads."""
        return {key: hio.parse_input(os.path.join(ROOT, path), validate=True)
                for key, path in self.inputs.items()}


def _normal(obj):
    """JSON round trip, so digests compare equal to the frozen file."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _dims(mod):
    return {n: mod.spaces[n] for n in sorted(mod.spaces)}


def _models(res):
    return {"agree": res["agree"], "stable_range": res["stable_range"],
            "bicomplex": res["bicomplex"].as_dict(),
            "mixed": res["mixed"].as_dict()}


# ---------------------------------------------------------------------------
# cli-q: the user-facing CLI scenarios over Q


def _cli_job(name, argv, cap_s):
    def run(env):
        os.makedirs(OUT_DIR, exist_ok=True)
        report = os.path.join(OUT_DIR, "report-%s.json" % name)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--output", report])
        with open(report, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(report)
        return {"exit": code, "report_sha256": digest}
    return Job(name, run, cap_s)


def _fixture(name):
    return os.path.join(ROOT, "fixtures", name)


CLI_JOBS = [
    ("epi", ["pair", "--via", "epi"], 90),
    ("trace-cup", ["pair", "--via", "trace-cup"], 30),
    ("crossed", ["pair", "--via", "crossed"], 30),
    ("cocrossed", ["pair", "--via", "cocrossed"], 30),
    ("star", ["pair", "--via", "star"], 30),
    ("char-map", ["char-map", _fixture("pairing-action-kz2.json"),
                  "--degree", "2"], 30),
    ("compare-modpair", ["compare", _fixture("module-coalgebra-kz2-regular.json"),
                         "--coefficients",
                         _fixture("modcomodule-modular-pair-kz2.json"),
                         "--degree", "5"], 60),
    ("build-dual", ["build", _fixture("module-algebra-dual-numbers.json"),
                    "--coefficients", _fixture("modcomodule-trivial-kz2.json"),
                    "--degree", "4"], 30),
    # negative control: the damaged B must be detected, exit code 1
    ("corrupt-b", ["compare", _fixture("hopf-kz2.json"), "--degree", "4",
                   "--corrupt-b"], 30),
]

CLI_Q = Workload(
    "cli-q",
    {"pairing": "fixtures/pairing-action-kz2.json",
     "coalgebra": "fixtures/module-coalgebra-kz2-regular.json",
     "modular-pair": "fixtures/modcomodule-modular-pair-kz2.json",
     "dual-numbers": "fixtures/module-algebra-dual-numbers.json",
     "trivial": "fixtures/modcomodule-trivial-kz2.json",
     "hopf-kz2": "fixtures/hopf-kz2.json"},
    [_cli_job(*spec) for spec in CLI_JOBS])


# ---------------------------------------------------------------------------
# saturate-fp: the full T -> J -> Q -> C tower over GF(10007)


def hopf_cyclic_tower(mc, m, N, buffer=2):
    """Digest of cover -> J -> Q -> C -> truncate, then axioms and models."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = cyclic.cover_coalgebra(mc, m, N + buffer)
        j = cyclic.compute_J(t, buffer=buffer)
        q = cyclic.quotient_module(t, j)
        c = cyclic.coinvariants(q)
    top = cyclic.truncate(c, N)
    return _normal({
        "T": _dims(t), "J": {n: j[n].dim for n in sorted(j)}, "Q": _dims(q),
        "C": _dims(c), "warnings": [str(w.message) for w in caught],
        "axioms": cyclic.check_axioms(top),
        "models": _models(homology.compare_models(top))})


SATURATE_FP = Workload(
    "saturate-fp",
    {"coalgebra": "bench/inputs/module-coalgebra-sweedler-regular-gf10007.json",
     "coefficients": "bench/inputs/modcomodule-trivial-sweedler-gf10007.json"},
    [Job("sweedler-n2",
         lambda env: hopf_cyclic_tower(env["coalgebra"], env["coefficients"], 2),
         120)])


# ---------------------------------------------------------------------------
# cohomology-q: both cohomology models of Cyc(A) over Q


def _cyc_models(key, N):
    def run(env):
        x = cyclic.cyc_algebra(env[key].algebra, N)
        return _normal({"dims": _dims(x),
                        "models": _models(homology.compare_models(x))})
    return run


def group_algebra_oracle(n):
    """HC^{2k}(kZ/n) = n and HC^{odd}(kZ/n) = 0, in both models."""
    def check(digest):
        problems = []
        for model in ("bicomplex", "mixed"):
            for deg, dim in digest["models"][model]["degrees"].items():
                want = n if int(deg) % 2 == 0 else 0
                if dim != want:
                    problems.append("%s HC^%s = %d, closed form gives %d"
                                    % (model, deg, dim, want))
        return problems
    return check


COHOMOLOGY_Q = Workload(
    "cohomology-q",
    {"kz3": "fixtures/hopf-kz3.json", "sweedler": "fixtures/hopf-sweedler.json"},
    [Job("kz3-n5", _cyc_models("kz3", 5), 60, oracle=group_algebra_oracle(3)),
     Job("h4-n4", _cyc_models("sweedler", 4), 60)])


WORKLOADS = {w.name: w for w in (CLI_Q, SATURATE_FP, COHOMOLOGY_Q)}


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)
