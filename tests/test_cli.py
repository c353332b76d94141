import json

import pytest

from transvect.cli import run


def _run(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_flag_is_usage_error():
    assert run(["orbits", "--bogus"]) == 2


def test_verify_relations_roundtrip(tmp_path):
    code, rep = _run(["verify-relations", "--ring", "gf:5", "--n", "2",
                      "--samples", "2", "--seed", "1"], tmp_path)
    assert code == 0 and rep["ok"]
    assert rep["command"] == "verify-relations"


def test_orbit_equality_command(tmp_path):
    code, rep = _run(["orbit-equality", "--ring", "zmod:3", "--size", "4"],
                     tmp_path)
    assert code == 0
    assert rep["results"][0]["equal"]


def test_decompose_symbolic(tmp_path):
    code, rep = _run(["decompose", "--symbolic", "--n", "2"], tmp_path)
    assert code == 0 and rep["ok"]


def test_reduce_form_command(tmp_path):
    code, rep = _run(["reduce-form", "--ring", "zmod:27", "--ideal", "3",
                      "--n", "2", "--samples", "2"], tmp_path)
    assert code == 0 and rep["ok"]


def test_splice_demo(tmp_path):
    code, rep = _run(["splice-demo", "--ring", "zmod:9", "--k", "3",
                      "--seed", "4"], tmp_path)
    assert code == 0 and rep["ok"]


def test_mathematical_failure_exits_one(tmp_path):
    # a non-local ring for reduce-form without CRT arguments that apply:
    # zmod:8 (even) is outside every reduction's domain -> math finding
    code, rep = _run(["reduce-form", "--ring", "zmod:8", "--n", "1"],
                     tmp_path)
    assert code == 1 and not rep["ok"]


def _strip_timing(rep):
    rep = dict(rep)
    rep.pop("started")
    rep.pop("elapsed")
    return rep


def test_reports_are_deterministic(tmp_path):
    argv = ["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
            "--samples", "25", "--seed", "7"]
    _, rep1 = _run(argv, tmp_path, "a.json")
    _, rep2 = _run(argv, tmp_path, "b.json")
    assert _strip_timing(rep1) == _strip_timing(rep2)


def test_malformed_ring_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    for argv in (["verify-relations", "--ring", "zmod:abc", "--symbolic"],
                 ["decompose", "--ring", "zmod"],
                 ["orbits", "--ring", "zmod:9", "--size", "4",
                  "--ideal", "x"]):
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_zero_checks_are_not_ok(tmp_path):
    for argv in (["verify-relations", "--n", "0", "--symbolic"],
                 ["decompose", "--samples", "0"],
                 ["reduce-form", "--samples", "0"],
                 ["kernel-test", "--ring", "zmod:9", "--size", "4",
                  "--ideal", "3", "--samples", "0"]):
        code, rep = _run(argv, tmp_path)
        assert code == 1 and not rep["ok"]


def _assert_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "u.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["orbits", "--ring", "zmod:3"],
    ["orbit-equality", "--ring", "zmod:3"],
    ["transitivity", "--ring", "zmod:3"],
    ["kernel-test", "--ring", "zmod:9", "--ideal", "3"],
    ["square-ideal-test", "--ring", "zmod:9", "--ideal", "3"],
])
@pytest.mark.parametrize("size", ["0", "-2", "x"])
def test_bad_size_is_usage_error(argv, size, tmp_path, capsys):
    _assert_usage_error(argv + ["--size", size], tmp_path, capsys)


@pytest.mark.parametrize("sizes", ["x", "4,", "4,1", "", "2", "3", "4,5"])
def test_bad_dilate_sizes_is_usage_error(sizes, tmp_path, capsys):
    _assert_usage_error(["dilate", "--sizes", sizes], tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "-1"],
    ["decompose", "--samples", "-1"],
    ["splice-demo", "--length", "-2"],
    ["orbits", "--ring", "zmod:3", "--size", "2", "--budget", "-1"],
    ["orbits", "--ring", "zmod:3", "--size", "2", "--budget", "0"],
    ["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
     "--cap", "0"],
])
def test_negative_counts_are_usage_errors(argv, tmp_path, capsys):
    _assert_usage_error(argv, tmp_path, capsys)


def test_splice_demo_needs_a_factor(tmp_path, capsys):
    _assert_usage_error(["splice-demo", "--k", "0"], tmp_path, capsys)
    code, rep = _run(["splice-demo", "--k", "1"], tmp_path)
    assert code == 0 and rep["results"][0]["factor_count"] == 1


def test_reduce_form_unreadable_input_is_usage_error(tmp_path, capsys):
    _assert_usage_error(["reduce-form", "--input",
                         str(tmp_path / "missing.json")], tmp_path, capsys)
    bad = tmp_path / "bad.json"
    for text in ("{not json", "{}", '{"ring": "zmod:27", "n": 2, "rows": 5}'):
        bad.write_text(text)
        _assert_usage_error(["reduce-form", "--input", str(bad)], tmp_path,
                            capsys)


@pytest.mark.parametrize("text", [
    '{"ring": "zmod:27", "n": 3, "rows": [[0, 1], [-1, 0]]}',
    '{"ring": "zmod:27", "n": 2, "rows": [[0, 1], [-1]]}',
    '{"ring": "dyadic", "n": 2, "rows": [[[0, 0], [1, -1]], '
    '[[-1, 0], [0, 0]]]}',
])
def test_reduce_form_inconsistent_input_is_usage_error(text, tmp_path,
                                                       capsys):
    """Valid JSON that builds no matrix (wrong size field, ragged rows,
    a negative dyadic exponent) is bad input, not a mathematical failure."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    _assert_usage_error(["reduce-form", "--input", str(bad)], tmp_path,
                        capsys)


def _psi2_file(tmp_path, m):
    from transvect.matrices import matrix_to_json, standard_form
    from transvect.rings import Zmod
    path = tmp_path / ("psi2-%d.json" % m)
    path.write_text(matrix_to_json(standard_form(Zmod(m), 2)))
    return str(path)


def test_reduce_form_input_over_another_ring_is_usage_error(tmp_path,
                                                            capsys):
    out = tmp_path / "u.json"
    argv = ["reduce-form", "--input", _psi2_file(tmp_path, 45)]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "zmod:45" in err and "zmod:27" in err
    assert not out.exists()


def test_reduce_form_input_over_its_ring(tmp_path):
    code, rep = _run(["reduce-form", "--ring", "zmod:45", "--input",
                      _psi2_file(tmp_path, 45)], tmp_path)
    assert code == 0 and rep["ok"]
    assert rep["results"][0]["total"] == 1


@pytest.mark.parametrize("ring", ["zmod:27", "zmod:45"])
def test_reduce_form_zero_ideal(ring, tmp_path):
    code, rep = _run(["reduce-form", "--ring", ring, "--ideal", "0"],
                     tmp_path)
    res = rep["results"][0]
    assert code == 0 and res["passed"] == res["total"] > 0


def test_transitivity_zero_ideal_full_universe(tmp_path):
    code, rep = _run(["transitivity", "--ring", "zmod:9", "--size", "4",
                      "--ideal", "0", "--full-universe"], tmp_path)
    res = rep["results"][0]
    assert code == 0 and res["transitive"]
    assert res["orbit_count"] == res["congruence_classes"] == 6480


@pytest.mark.parametrize("argv", [
    ["reduce-form", "--n", "0"],
    ["transitivity", "--ring", "zmod:9", "--ideal", "3", "--full-universe",
     "--size", "1"],
    ["orbit-equality", "--ring", "zmod:3", "--size", "2"],
    ["orbit-equality", "--ring", "zmod:3", "--size", "3"],
    ["orbit-equality", "--ring", "zmod:3", "--size", "5"],
    ["kernel-test", "--ring", "zmod:9", "--ideal", "3", "--size", "3"],
    ["square-ideal-test", "--ring", "zmod:9", "--ideal", "3", "--size", "3"],
])
def test_size_outside_the_theorem_is_usage_error(argv, tmp_path, capsys):
    """A degenerate size is bad input, not a counterexample."""
    _assert_usage_error(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["reduce-form", "--n", "1", "--samples", "2"],
    ["transitivity", "--ring", "zmod:9", "--ideal", "3", "--full-universe",
     "--size", "2"],
    ["kernel-test", "--ring", "zmod:9", "--ideal", "3", "--size", "2",
     "--samples", "20"],
    ["square-ideal-test", "--ring", "zmod:9", "--ideal", "3", "--size", "2",
     "--samples", "20"],
])
def test_smallest_sizes_run(argv, tmp_path):
    code, rep = _run(argv, tmp_path)
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("argv", [
    ["--group", "esp", "--size", "3"],
    ["--group", "esp-rel", "--size", "3", "--ideal", "3"],
    ["--group", "esp1", "--size", "5", "--ideal", "3"],
    ["--group", "e-rel", "--size", "4"],
    ["--group", "esp-rel", "--size", "4"],
    ["--group", "e1", "--size", "4"],
    ["--group", "esp1", "--size", "4"],
])
def test_orbits_group_that_does_not_fit_is_usage_error(argv, tmp_path,
                                                       capsys):
    """An odd size for a symplectic group, or no ideal for a group that
    needs one, is bad input, not a mathematical failure."""
    _assert_usage_error(["orbits", "--ring", "zmod:9"] + argv, tmp_path,
                        capsys)


@pytest.mark.parametrize("group", ["e", "esp"])
def test_orbits_absolute_group_with_an_ideal_is_usage_error(group, tmp_path,
                                                            capsys):
    """An absolute group is E(R) = E(R, R): an --ideal would change the
    report's parameters and nothing else."""
    _assert_usage_error(["orbits", "--ring", "zmod:9", "--size", "4",
                         "--group", group, "--ideal", "3"], tmp_path, capsys)


def test_orbits_ring_of_the_wrong_kind_exits_one(tmp_path):
    code, rep = _run(["orbits", "--ring", "dyadic", "--size", "4"], tmp_path)
    assert code == 1 and rep["results"][0]["name"] == "error"
