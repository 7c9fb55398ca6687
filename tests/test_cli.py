"""End-to-end command-line runs, in process, with exit-code contracts."""

import json

import pytest

from hopfcyclic.cli import main, EXIT_OK, EXIT_FAIL, EXIT_USAGE


@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    """A directory holding every shipped input file."""
    d = tmp_path_factory.mktemp("lib")
    assert main(["fixtures", "--output", str(d)]) == EXIT_OK
    return d


def test_check_fixture_library(capsys):
    assert main(["check", "--fixtures"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_prints_every_status_in_one_column(capsys):
    main(["check", "--fixtures"])
    lines = capsys.readouterr().out.splitlines()
    name = [line.split(" ", 1)[0] for line in lines]
    column = {len(line) - len(line[len(n):].lstrip(" ")) for n, line in zip(name, lines)}
    assert len(lines) > 1 and len(column) == 1, column


def test_check_single_file(lib):
    assert main(["check", str(lib / "hopf-kz2.json")]) == EXIT_OK


def test_check_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "line" in captured.out + captured.err


def test_check_missing_file_is_usage_error(tmp_path):
    assert main(["check", str(tmp_path / "absent.json")]) == EXIT_USAGE


def test_degree_must_be_positive():
    assert main(["cohomology", "x.json", "--degree", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("buffer", ["-3", "-1", "0"])
@pytest.mark.parametrize("argv", [
    ["build", "module-coalgebra-kz2-regular.json",
     "--coefficients", "modcomodule-trivial-kz2.json", "--degree", "2"],
    ["cohomology", "module-coalgebra-kz2-regular.json",
     "--coefficients", "modcomodule-modular-pair-kz2.json", "--degree", "4"]],
    ids=["build", "cohomology"])
def test_buffer_must_be_positive(lib, argv, buffer, capsys):
    # a buffer below 1 leaves no stable degree to certify: refused before
    # any complex is built, not a traceback or a degree-0-only table
    argv = [str(lib / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--buffer", buffer]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--buffer must be at least 1\n"


def test_unknown_field_is_usage_error(lib):
    assert main(["check", str(lib / "hopf-kz2.json"),
                 "--field", "six"]) == EXIT_USAGE


def test_build_hopf(lib, capsys):
    assert main(["build", str(lib / "hopf-kz2.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "axioms ok" in out
    assert "Cyc(algebra)" in out and "Cyc(coalgebra)" in out


def test_build_module_algebra_with_coefficients(lib, capsys):
    assert main(["build", str(lib / "module-algebra-dual-numbers.json"),
                 "--coefficients", str(lib / "modcomodule-trivial-kz2.json"),
                 "--degree", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "axioms" in out


def test_cohomology_models_agree(lib, capsys):
    assert main(["cohomology", str(lib / "hopf-kz2.json"),
                 "--model", "both", "--degree", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "agree" in out


def test_compare_clean(lib):
    assert main(["compare", str(lib / "hopf-kz2.json"),
                 "--degree", "4"]) == EXIT_OK


def test_compare_corrupt_b_negative_control(lib, capsys, tmp_path):
    # the damaged B_2 of a mixed complex built apart from any table, so no
    # operator shared with a table hides the damage
    report = tmp_path / "corrupt-b.json"
    assert main(["compare", str(lib / "hopf-kz2.json"), "--degree", "4",
                 "--corrupt-b", "--output", str(report)]) == EXIT_FAIL == 1
    named = ["bB + Bb != 0 at degree 1", "B^2 != 0 at degree 2",
             "bB + Bb != 0 at degree 2", "B^2 != 0 at degree 3"]
    assert capsys.readouterr().out.splitlines() == [
        "corrupted B detected: " + line for line in named]
    assert json.loads(report.read_text())["failures"] == named


def test_compare_corrupt_b_below_its_degree_is_refused(lib, capsys):
    # kZ/2 is commutative, so b_0 = 0 and the damaged B_1 of degree 1
    # enters no checkable identity: the control could not fail there
    assert main(["compare", str(lib / "hopf-kz2.json"), "--degree", "1",
                 "--corrupt-b"]) == EXIT_USAGE
    assert "--degree 1 is too small for --corrupt-b" in capsys.readouterr().err


def test_char_map(lib, capsys):
    assert main(["char-map", str(lib / "pairing-action-kz2.json"),
                 "--degree", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "routes agreed" in out


def test_pair_scenarios(lib):
    for via in ("trace-cup", "crossed", "cocrossed", "star"):
        assert main(["pair", "--via", via, "--degree", "2"]) == EXIT_OK, via


def test_pair_trace_cup_reports_a_degree_with_no_class(tmp_path, capsys):
    # no degree-1 Hopf-cyclic cocycle exists here: the report says so, as
    # char-map does, instead of printing nothing
    report = tmp_path / "report.json"
    assert main(["pair", "--via", "trace-cup", "--degree", "1",
                 "--output", str(report)]) == EXIT_OK
    assert capsys.readouterr().out == "degree-1 Hopf-cyclic cocycles: 0\n"
    assert json.loads(report.read_text())["details"] == {}


def test_pair_epi_and_drop_factor():
    assert main(["pair", "--via", "epi", "--degree", "1"]) == EXIT_OK
    assert main(["pair", "--via", "epi", "--degree", "1",
                 "--drop-factor"]) == EXIT_FAIL


def test_reports_are_deterministic(lib, tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cohomology", str(lib / "hopf-kz2.json"), "--model", "both",
            "--degree", "4"]
    assert main(argv + ["--output", str(r1)]) == EXIT_OK
    assert main(argv + ["--output", str(r2)]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()
    rep = json.loads(r1.read_text())
    assert rep["ok"] is True and rep["command"] == "cohomology"
    assert rep["bicomplex"]["degrees"] == rep["mixed"]["degrees"]


def test_fixture_library_is_reproducible(lib, tmp_path):
    d2 = tmp_path / "again"
    d2.mkdir()
    assert main(["fixtures", "--output", str(d2)]) == EXIT_OK
    names = sorted(p.name for p in lib.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (lib / name).read_bytes() == (d2 / name).read_bytes()


def test_build_without_coefficients_is_usage_error(lib):
    assert main(["build", str(lib / "module-algebra-dual-numbers.json")]) \
        == EXIT_USAGE


def test_compare_across_hopf_algebras_is_usage_error(lib, tmp_path):
    from hopfcyclic import QQ, trivial_modcomodule
    from hopfcyclic import fixtures as fx
    from hopfcyclic.io import save
    kz3 = tmp_path / "modcomodule-trivial-kz3.json"
    save(trivial_modcomodule(fx.group_algebra(QQ, 3)), str(kz3))
    report = tmp_path / "report.json"
    assert main(["compare", str(lib / "module-coalgebra-kz2-regular.json"),
                 "--coefficients", str(kz3),
                 "--output", str(report)]) == EXIT_USAGE
    rep = json.loads(report.read_text())
    assert rep["ok"] is False and "Hopf" in rep["error"]


@pytest.mark.parametrize("argv", [["cohomology"],
                                  ["cohomology", "--model", "both"],
                                  ["compare"]],
                         ids=["cohomology", "cohomology-both", "compare"])
def test_empty_stable_range_is_usage_error(lib, tmp_path, argv, capsys):
    # --degree 1 leaves the stable range n <= -1: an empty table certifies
    # nothing, so it is refused instead of printed with exit 0
    report = tmp_path / "report.json"
    assert main(argv[:1] + [str(lib / "hopf-kz2.json")] + argv[1:]
                + ["--degree", "1", "--output", str(report)]) == EXIT_USAGE
    assert "agree" not in capsys.readouterr().out
    rep = json.loads(report.read_text())
    assert rep["ok"] is False and "stable range" in rep["error"]


def test_field_must_match_a_file_input(lib, tmp_path, capsys):
    # --field used to be ignored for files: the table came out over Q
    report = tmp_path / "report.json"
    assert main(["cohomology", str(lib / "hopf-kz2.json"), "--field", "7",
                 "--output", str(report)]) == EXIT_USAGE
    assert "degree" not in capsys.readouterr().out
    rep = json.loads(report.read_text())
    assert rep["ok"] is False and "--field 7" in rep["error"]
    gf7 = tmp_path / "gf7"
    assert main(["fixtures", "--field", "7", "--output", str(gf7)]) == EXIT_OK
    assert main(["cohomology", str(gf7 / "hopf-kz2.json"), "--field", "7",
                 "--degree", "3"]) == EXIT_OK
    assert main(["check", str(lib / "hopf-kz2.json"), "--field", "Q"]) == EXIT_OK


@pytest.mark.parametrize("via,degree", [("trace-cup", 3), ("crossed", 5),
                                        ("cocrossed", 1), ("star", 3)])
def test_pair_refuses_a_degree_it_cannot_honour(via, degree, tmp_path, capsys):
    # these scenarios run at fixed degrees: any other --degree is refused
    report = tmp_path / "report.json"
    assert main(["pair", "--via", via, "--degree", str(degree),
                 "--output", str(report)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    rep = json.loads(report.read_text())
    assert rep["ok"] is False
    assert "--degree" in rep["error"] and "not %d" % degree in rep["error"]


def test_pair_epi_checks_the_degrees_asked_for(tmp_path):
    report = tmp_path / "report.json"
    assert main(["pair", "--via", "epi", "--degree", "1",
                 "--output", str(report)]) == EXIT_OK
    rep = json.loads(report.read_text())
    assert sorted(rep["details"]["degrees"]) == ["0", "1"]


def test_pair_epi_builds_one_tower_per_distinct_factor(monkeypatch):
    # pair --via epi checks Q(A (x) A, M (x) M) onto diag(Q (x) Q) with the
    # same A and M twice: Q(A, M) is built once, so two towers in all
    from hopfcyclic import pairings
    built, real = [], pairings.hopf_cyclic_complex

    def spy(c_or_a, m, N, **kw):
        built.append((c_or_a, m))
        return real(c_or_a, m, N, **kw)
    monkeypatch.setattr(pairings, "hopf_cyclic_complex", spy)
    assert main(["pair", "--via", "epi"]) == EXIT_OK
    assert len(built) == 2 and built[0] != built[1]


def _probe(lib, tmp_path, name, edit):
    doc = json.loads((lib / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _bad_antipode(doc):
    doc["hopf"]["antipode"] = [[0, 0, 1, 1], [1, 1, 1, 1], [0, 1, 1, 1]]  # S(g) = g + 1


def _no_right_unit(doc):
    doc["algebra_side"]["mul"].remove([1, 0, 1, 1, 1])                    # x * 1 = 0


def test_nested_structures_are_validated(lib, tmp_path, capsys):
    mc = _probe(lib, tmp_path, "module-coalgebra-kz2-regular.json", _bad_antipode)
    m = _probe(lib, tmp_path, "modcomodule-trivial-kz2.json", _bad_antipode)
    pairing = _probe(lib, tmp_path, "pairing-action-kz2.json", _no_right_unit)
    for path in (mc, m):
        assert main(["check", path]) == EXIT_FAIL
        assert "hopf: antipode: S(h1)h2 != eps(h)1 at e1" in capsys.readouterr().out
    assert main(["check", pairing]) == EXIT_FAIL
    assert "algebra side: module algebra base: e1 * 1 != e1" in capsys.readouterr().out
    assert main(["build", mc, "--coefficients", m, "--degree", "3"]) == EXIT_USAGE
    assert main(["cohomology", mc, "--coefficients", m, "--degree", "4"]) == EXIT_USAGE
    assert main(["char-map", pairing, "--degree", "1"]) == EXIT_USAGE
    assert "degree" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "hopf-kz2.json", "--degree", "9"],
    ["check", "hopf-kz2.json", "--buffer", "7"],
    ["check", "hopf-kz2.json", "--model", "mixed"],
    ["compare", "hopf-kz2.json", "--model", "mixed"],
    ["build", "hopf-kz2.json", "--model", "mixed"],
    ["char-map", "pairing-action-kz2.json", "--model", "mixed"],
    ["pair", "--via", "trace-cup", "--model", "mixed"],
    ["fixtures", "--degree", "3"],
    ["check", "hopf-kz2.json", "--sequential"]])
def test_flags_a_command_does_not_read_are_refused(lib, argv):
    argv = [str(lib / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == EXIT_USAGE


@pytest.fixture(scope="module")
def algebra_file(tmp_path_factory):
    """The dual numbers as a bare algebra file."""
    from hopfcyclic import fixtures as fx
    from hopfcyclic.io import save
    path = tmp_path_factory.mktemp("a") / "algebra-dual-numbers.json"
    save(fx.dual_numbers_algebra(), str(path))
    return path


M = "modcomodule-trivial-kz2.json"


@pytest.mark.parametrize("argv,flag", [
    (["build", "hopf-kz2.json", "--coefficients", M], "--coefficients"),
    (["cohomology", "hopf-kz2.json", "--coefficients", M], "--coefficients"),
    (["compare", "algebra", "--coefficients", M], "--coefficients"),
    (["build", "hopf-kz2.json", "--buffer", "3"], "--buffer"),
    (["cohomology", "algebra", "--buffer", "3"], "--buffer"),
    (["compare", "comodule-algebra-kz2.json", "--coefficients", M,
      "--buffer", "3"], "--buffer"),
    (["build", "comodule-coalgebra-functions-kz2.json", "--coefficients", M,
      "--buffer", "3"], "--buffer"),
    (["build", "module-coalgebra-kz2-regular.json",
      "--coefficients", "modcomodule-modular-pair-kz2.json", "--buffer", "3"],
     "--buffer"),
    (["cohomology", "module-algebra-dual-numbers.json", "--coefficients", M,
      "--buffer", "3"], "--buffer"),
    (["compare", "module-coalgebra-sweedler-regular.json", "--coefficients",
      "modcomodule-modular-pair-sweedler.json", "--buffer", "3"], "--buffer"),
    (["char-map", "pairing-action-kz2.json", "--buffer", "3"], "--buffer")],
    ids=["build-hopf-coefficients", "cohomology-hopf-coefficients",
         "compare-algebra-coefficients", "build-hopf-buffer",
         "cohomology-algebra-buffer", "compare-comodule-algebra-buffer",
         "build-comodule-coalgebra-buffer", "build-sayd-buffer",
         "cohomology-sayd-buffer", "compare-sayd-buffer", "char-map-sayd-buffer"])
def test_flags_an_input_does_not_read_are_refused(lib, algebra_file, argv, flag,
                                                  tmp_path, capsys):
    # a classical cyclic module reads no coefficients, only a module
    # (co)algebra builds the cover that --buffer extends, and with SAYD
    # coefficients C is the coinvariants of the degree-N cover: no J, no buffer
    argv = [str(algebra_file) if a == "algebra" else
            str(lib / a) if a.endswith(".json") else a for a in argv]
    report = tmp_path / "report.json"
    assert main(argv + ["--degree", "3", "--output", str(report)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    rep = json.loads(report.read_text())
    assert rep["ok"] is False and rep["error"].startswith(flag + " is read only")


@pytest.mark.parametrize("argv", [
    ["build", "module-coalgebra-kz2-regular.json"],
    ["cohomology", "module-coalgebra-kz2-regular.json"],
    ["compare", "module-coalgebra-kz2-regular.json"],
    ["char-map", "pairing-action-kz2.json"]],
    ids=["build", "cohomology", "compare", "char-map"])
def test_coefficients_must_be_a_modcomodule_file(lib, argv, tmp_path, capsys):
    # a Hopf algebra file given as coefficients is refused by name, for
    # every command that reads --coefficients, before anything is built
    report = tmp_path / "report.json"
    assert main([argv[0], str(lib / argv[1]), "--coefficients",
                 str(lib / "hopf-kz2.json"), "--degree", "3",
                 "--output", str(report)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "--coefficients must be a modcomodule "
                                       "file\n")
    assert json.loads(report.read_text()) == {
        "ok": False, "error": "--coefficients must be a modcomodule file"}


@pytest.mark.parametrize("argv", [["pair", "--via", "star", "--buffer", "7"],
                                  ["pair", "--via", "crossed", "--drop-factor"],
                                  # the coefficients of these three are SAYD
                                  ["pair", "--via", "trace-cup", "--buffer", "3"],
                                  ["pair", "--via", "crossed", "--buffer", "3"],
                                  ["pair", "--via", "cocrossed", "--buffer", "3"]])
def test_pair_refuses_flags_its_scenario_ignores(argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(argv + ["--output", str(report)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert json.loads(report.read_text())["ok"] is False


def test_buffer_is_read_where_j_is_closed(lib, not_sayd, monkeypatch):
    # coefficients that are not SAYD, and the two Q towers of pair --via
    # epi, close J on a cover N + buffer deep
    from hopfcyclic import cyclic
    seen, real = [], cyclic.compute_J

    def spy(t, buffer=2):
        seen.append((t.N, buffer))
        return real(t, buffer=buffer)
    monkeypatch.setattr(cyclic, "compute_J", spy)
    assert main(["build", str(lib / "module-coalgebra-kz2-regular.json"),
                 "--coefficients", str(not_sayd), "--degree", "2",
                 "--buffer", "3"]) == EXIT_OK
    assert main(["pair", "--via", "epi", "--degree", "1",
                 "--buffer", "1"]) == EXIT_OK
    assert seen == [(5, 3), (2, 1), (2, 1)]


@pytest.fixture(scope="module")
def not_sayd(tmp_path_factory):
    """A kZ/2 modcomodule (regular action and coaction) that is not SAYD."""
    from hopfcyclic import QQ
    from hopfcyclic import fixtures as fx
    from hopfcyclic.io import save
    path = tmp_path_factory.mktemp("m") / "not-sayd-kz2.json"
    save(fx.regular_action_regular_coaction(fx.group_algebra(QQ, 2)),
         str(path))
    return path


@pytest.mark.parametrize("command", ["build", "cohomology", "compare"])
@pytest.mark.parametrize("base", ["comodule-algebra-kz2.json",
                                  "comodule-coalgebra-functions-kz2.json"])
def test_coefficients_that_are_not_sayd_fail_by_name(lib, not_sayd, base,
                                                     command, tmp_path, capsys):
    # both colinear-Hom complexes need SAYD coefficients: a verified failure
    # (exit 1, the broken identity named), not a traceback
    report = tmp_path / "report.json"
    assert main([command, str(lib / base), "--coefficients", str(not_sayd),
                 "--degree", "2", "--output", str(report)]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NotSAYD: sayd: stability fails at e1")
    rep = json.loads(report.read_text())
    assert rep["ok"] is False and rep["error"] == captured.err.strip()


def test_descent_failure_exits_1(lib, tmp_path, capsys, monkeypatch):
    # a descent certificate that fails on valid input is a verified failure
    from hopfcyclic import cli
    from hopfcyclic.cyclic import DescentFailure

    def fail(*args):
        raise DescentFailure("tau_0 leaves the colinear subspace")
    monkeypatch.setattr(cli, "hopf_cyclic_comodule_coalgebra", fail)
    report = tmp_path / "report.json"
    assert main(["build", str(lib / "comodule-coalgebra-functions-kz2.json"),
                 "--coefficients", str(lib / "modcomodule-trivial-kz2.json"),
                 "--output", str(report)]) == EXIT_FAIL
    err = "DescentFailure: tau_0 leaves the colinear subspace"
    assert capsys.readouterr().err == err + "\n"
    assert json.loads(report.read_text()) == {"ok": False, "error": err}


@pytest.mark.parametrize("command", ["build", "cohomology", "compare"])
@pytest.mark.parametrize("base, kind", [
    ("comodule-algebra-kz2.json", "comodule algebra"),
    ("comodule-coalgebra-functions-kz2.json", "comodule coalgebra")])
def test_colinear_hom_over_another_hopf_algebra_exits_2(lib, base, kind, command,
                                                        tmp_path, capsys):
    # kZ/2 inputs with Sweedler coefficients: refused before any map is built
    report = tmp_path / "report.json"
    assert main([command, str(lib / base), "--coefficients",
                 str(lib / "modcomodule-modular-pair-sweedler.json"),
                 "--output", str(report)]) == EXIT_USAGE
    err = "%s and coefficients across different Hopf algebras" % kind
    assert capsys.readouterr().err == err + "\n"
    assert json.loads(report.read_text()) == {"ok": False, "error": err}


def test_identity_failure_exits_1(lib, tmp_path, capsys, monkeypatch):
    # a model identity that fails while the bicomplex is built is a verified
    # failure, named as the model names it
    from hopfcyclic import homology
    monkeypatch.setattr(homology.Bicomplex, "violations",
                        lambda self: ["b b != 0 from row 1"])
    report = tmp_path / "report.json"
    assert main(["compare", str(lib / "hopf-kz2.json"), "--degree", "3",
                 "--output", str(report)]) == EXIT_FAIL
    err = "IdentityFailure: b b != 0 from row 1"
    assert capsys.readouterr().err == err + "\n"
    assert json.loads(report.read_text()) == {"ok": False, "error": err}


def test_invertibility_failure_exits_1(tmp_path, capsys, monkeypatch):
    # compute_J's rank check on tau is a verified failure too
    import os
    from hopfcyclic import cyclic

    def fail(*args):
        raise cyclic.InvertibilityFailure("tau_1 is not invertible")
    monkeypatch.setattr(cyclic, "_certify_symmetries", fail)
    inputs = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "inputs")
    report = tmp_path / "report.json"
    assert main(["build",
                 os.path.join(inputs, "module-coalgebra-sweedler-regular-gf10007.json"),
                 "--coefficients",
                 os.path.join(inputs, "modcomodule-trivial-sweedler-gf10007.json"),
                 "--degree", "1", "--output", str(report)]) == EXIT_FAIL
    err = "InvertibilityFailure: tau_1 is not invertible"
    assert capsys.readouterr().err == err + "\n"
    assert json.loads(report.read_text()) == {"ok": False, "error": err}


def test_a_failed_j_certificate_exits_1(tmp_path, capsys, monkeypatch):
    # without algebra generators J is only the closure of T - id, and the
    # seed certificate finds a [L_h, tau] column outside it
    import os
    from hopfcyclic import cyclic
    inputs = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "inputs")
    monkeypatch.setattr(cyclic, "algebra_generators", lambda hopf: [])
    report = tmp_path / "report.json"
    assert main(["build",
                 os.path.join(inputs, "module-coalgebra-sweedler-regular-gf10007.json"),
                 "--coefficients",
                 os.path.join(inputs, "modcomodule-trivial-sweedler-gf10007.json"),
                 "--degree", "1", "--output", str(report)]) == EXIT_FAIL
    err = "CertificateFailure: seed [L_2, tau] leaves J at degree 1"
    assert capsys.readouterr().err == err + "\n"
    assert json.loads(report.read_text()) == {"ok": False, "error": err}


def test_main_runs_commands_in_a_row_as_fresh_processes(tmp_path):
    # main builds its parser once and reuses it: a command run after another
    # in one process writes the report a fresh process writes for it
    import os
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    runs = [["cohomology", str(root / "fixtures" / "hopf-kz3.json"),
             "--model", "mixed", "--degree", "3"],
            ["compare", str(root / "fixtures" / "hopf-kz2.json"),
             "--degree", "4"]]
    for k, argv in enumerate(runs):
        here, fresh = tmp_path / ("here-%d.json" % k), tmp_path / ("fresh-%d.json" % k)
        assert main(argv + ["--output", str(here)]) == EXIT_OK
        run = subprocess.run([sys.executable, "-m", "hopfcyclic.cli", *argv,
                              "--output", str(fresh)], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_OK, run.stderr
        assert here.read_bytes() == fresh.read_bytes()


def test_an_unwritable_output_path_is_a_usage_error(lib, tmp_path, capsys):
    import errno
    import os
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["check", str(lib / "hopf-kz2.json"),
                 "--output", str(report)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "ok" in captured.out     # the report is printed before the write
    assert captured.err == "cannot write %s: %s\n" % (
        report, os.strerror(errno.ENOENT))


def test_fixtures_into_an_existing_file_is_a_usage_error(tmp_path, capsys):
    import errno
    import os
    target = tmp_path / "F"
    target.write_text("kept\n")
    assert main(["fixtures", "--output", str(target)]) == EXIT_USAGE
    assert capsys.readouterr().err == "cannot write %s: %s\n" % (
        target, os.strerror(errno.EEXIST))
    assert target.read_text() == "kept\n"
