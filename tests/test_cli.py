import hashlib
import json
import os
import subprocess
import sys

import pytest

import transvect
from transvect.cli import _build_parser, run


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


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_a_usage_error_leaves_the_parser_as_built(tmp_path, capsys):
    """In one process, a usage error of a subcommand and then a valid
    argv of it: the report is the one a freshly built parser gives."""
    argv = ["square-ideal-test", "--ring", "zmod:9", "--size", "4",
            "--ideal", "3", "--samples", "20", "--seed", "3"]
    _build_parser.cache_clear()
    _, fresh = _run(argv, tmp_path, "fresh.json")
    _assert_usage_error(argv[:-2] + ["--seed", "x", "--cap", "0"], tmp_path,
                        capsys)
    _, again = _run(argv, tmp_path, "again.json")
    assert _strip_timing(again) == _strip_timing(fresh)


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
    ["splice-demo", "--length", "0"],
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


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_out_is_usage_error(where, tmp_path, capsys):
    """An --out path in a missing directory, or a directory, is bad
    input: one usage-error line on stderr and exit 2, no traceback."""
    assert run(["splice-demo", "--out", str(tmp_path / where)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write --out ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


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


def test_reduce_form_names_the_ideal_as_given(tmp_path):
    """Over a prime-power ring the table reduces modulo the --ideal
    itself, so a form outside it is reported mod (6), not mod (3)."""
    from transvect.matrices import matrix_to_json, standard_form
    from transvect.rings import Zmod
    from transvect.words import GeneratorWord, lin
    ring = Zmod(27)
    phi = GeneratorWord(ring, 3, [lin(1, 2, 1)]).shifted(1).congruence(
        standard_form(ring, 2))
    path = tmp_path / "phi.json"
    path.write_text(matrix_to_json(phi))
    code, rep = _run(["reduce-form", "--ring", "zmod:27", "--ideal", "6",
                      "--input", str(path)], tmp_path)
    assert code == 1
    assert rep["results"] == [{
        "name": "error", "ok": False,
        "message": "phi is not congruent to psi_n mod ideal:6"}]


@pytest.mark.parametrize("argv", [
    ["--ring", "zmod:27"],
    ["--ring", "zmod:27", "--ideal", "3"],
    ["--ring", "gf:5"],
])
def test_reduce_form_runs_the_semilocal_table_only(argv, tmp_path,
                                                   monkeypatch):
    """A prime-power ring is the table's one prime: the report's witness
    is that prime's word, and the local reduction is never called."""
    from transvect import normalforms

    def refuse(*args):
        raise AssertionError("reduce-form called reduce_alternating_local")
    # rebound wherever a transvect module imported it
    local = normalforms.reduce_alternating_local
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "transvect" and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is local:
                    monkeypatch.setattr(mod, key, refuse)
    code, rep = _run(["reduce-form", "--samples", "3"] + argv, tmp_path)
    res = rep["results"][0]
    assert code == 0 and res["passed"] == res["total"] == 3
    assert isinstance(json.loads(res["witness"]), list)


@pytest.mark.parametrize("ring,largest", [("zmod:27", 27), ("zmod:45", 5)],
                         ids=["zmod:27", "zmod:45"])
def test_reduce_form_passes_a_form_only_if_every_prime_verified(
        ring, largest, tmp_path, monkeypatch):
    """A form counts as passed only when each prime's ``verified`` flag
    is True: one False prime fails it, with one prime or with two.  Over
    these rings the flags come from the block certificate, one call per
    prime; ``largest`` is the local modulus of the largest prime."""
    from transvect import normalforms
    certify = normalforms._certify_block

    def one_unverified(phi, eps, q):
        return certify(phi, eps, q) & (q != largest)
    monkeypatch.setattr(normalforms, "_certify_block", one_unverified)
    code, rep = _run(["reduce-form", "--ring", ring, "--samples", "2"],
                     tmp_path)
    res = rep["results"][0]
    assert code == 1 and (res["passed"], res["total"]) == (0, 2)


def test_reduce_form_past_int64_passes_a_form_only_if_every_prime_verified(
        tmp_path, monkeypatch):
    """Over Z/(2**33 + 1), past ``fits_table``, each form runs the
    semilocal table: one prime's False flag fails the form."""
    from transvect import normalforms
    semilocal = normalforms.reduce_alternating_semilocal

    def one_unverified(phi, ideal):
        table = semilocal(phi, ideal)
        table[max(table)]["verified"] = False
        return table
    monkeypatch.setattr(normalforms, "reduce_alternating_semilocal",
                        one_unverified)
    code, rep = _run(["reduce-form", "--ring", "zmod:8589934593",
                      "--samples", "2"], tmp_path)
    res = rep["results"][0]
    assert code == 1 and (res["passed"], res["total"]) == (0, 2)


@pytest.mark.parametrize("argv", [
    ["--ring", "zmod:27", "--n", "3", "--samples", "300"],
    ["--ring", "zmod:45", "--ideal", "3", "--samples", "20", "--seed", "4"],
    ["--ring", "gf:7", "--ideal", "0", "--n", "1", "--samples", "9"],
])
def test_reduce_form_reports_do_not_depend_on_the_block_size(
        argv, tmp_path, monkeypatch):
    """Forms drawn and reduced one block at a time, in blocks of 1, 7
    or the default (300 samples span three default blocks): the report
    is the same."""
    from transvect import normalforms
    _, want = _run(["reduce-form"] + argv, tmp_path, "default.json")
    assert want["ok"]
    for rows in (1, 7):
        monkeypatch.setattr(normalforms, "_FORM_ROWS", rows)
        _, rep = _run(["reduce-form"] + argv, tmp_path, "%d.json" % rows)
        assert _strip_timing(rep) == _strip_timing(want)


def test_reduce_form_memory_does_not_grow_with_samples(tmp_path):
    """Forms are drawn as they are reduced, so the traced peak at 2,000
    samples stays under twice the peak at 200."""
    import tracemalloc
    argv = ["reduce-form", "--ring", "zmod:27", "--out",
            str(tmp_path / "r.json")]
    assert run(argv + ["--samples", "2"]) == 0  # parser and imports built
    peaks = []
    for samples in (200, 2000):
        tracemalloc.start()
        try:
            assert run(argv + ["--samples", str(samples)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_reduce_form_over_a_prime_near_two_to_the_63_ends(tmp_path):
    """Z/(2**63 - 25) is past the int64 tables, and its factoring is
    Miller-Rabin, not trial division: the run reports within 5 s."""
    import signal

    def expire(*_):
        raise TimeoutError("reduce-form still running after 5 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        code, rep = _run(["reduce-form", "--ring", "zmod:9223372036854775783",
                          "--samples", "1"], tmp_path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    res = rep["results"][0]
    assert code == 0 and (res["passed"], res["total"]) == (1, 1)


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


@pytest.mark.parametrize("ideal", ["R", "full"])
def test_transitivity_over_the_whole_ring(ideal, tmp_path):
    """``--ideal R`` (or ``full``) is the unit ideal: Um(R, R) is all 72
    unimodular rows of (Z/9)^2, one orbit of one congruence class."""
    code, rep = _run(["transitivity", "--ring", "zmod:9", "--size", "2",
                      "--ideal", ideal], tmp_path)
    res = rep["results"][0]
    assert code == 0 and res["ideal"] == "ideal:full" and res["transitive"]
    assert res["universe_size"] == 72 and res["orbit_count"] == 1


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


@pytest.mark.parametrize("command", ["kernel-test", "square-ideal-test"])
def test_ring_past_int64_is_an_error_result(command, tmp_path):
    """Z/(2**63 + 1) overflows int64: a one-line error result, no
    traceback."""
    code, rep = _run([command, "--ring", "zmod:9223372036854775809",
                      "--size", "4", "--ideal", "3", "--samples", "5"],
                     tmp_path)
    res, = rep["results"]
    assert code == 1 and res["name"] == "error"
    assert "overflow int64" in res["message"]
    assert "\n" not in res["message"]


@pytest.mark.parametrize("argv", [
    ["orbits", "--size", "2", "--group", "e-rel"],
    ["transitivity", "--size", "2"],
    ["orbit-equality", "--size", "4"],
])
def test_orbit_keys_past_int64_are_an_error_result(argv, tmp_path, capsys):
    """2**63 + 1 = 3 * 3074457345618258603: the universe of that ideal
    is tiny, but its rows' keys overflow int64.  A one-line error
    result and nothing on stderr, not an OverflowError traceback."""
    code, rep = _run(argv + ["--ring", "zmod:9223372036854775809",
                             "--ideal", "3074457345618258603"], tmp_path)
    res, = rep["results"]
    assert code == 1 and res["name"] == "error"
    assert "overflow int64 keys" in res["message"]
    assert capsys.readouterr().err == ""


def test_kernel_test_reaches_past_int64_matrix_keys(tmp_path):
    """Z/25 at size 4: 25**16 overflows int64 matrix keys, which the
    stabilizer chain does not need; the group has 5**10 elements."""
    code, rep = _run(["kernel-test", "--ring", "zmod:25", "--size", "4",
                      "--ideal", "5", "--samples", "200", "--cap",
                      "10000000"], tmp_path)
    res, = rep["results"]
    assert code == 0 and rep["ok"] and res["ok"]
    assert res["closure_size"] == 5 ** 10 == 9765625
    assert res["samples"] == res["members"] == 200


# the cheapest run of each subcommand, and its report's parameter keys
CHEAPEST = {
    "verify-relations": (["--symbolic", "--n", "0"],
                         ["command", "n", "ring", "samples", "seed",
                          "symbolic"]),
    "dilate": ([], ["command", "sizes"]),
    "decompose": (["--samples", "0"],
                  ["command", "n", "ring", "samples", "seed", "symbolic"]),
    "reduce-form": (["--samples", "0"],
                    ["command", "ideal", "input", "n", "ring", "samples",
                     "seed"]),
    "orbits": (["--ring", "zmod:3", "--size", "2"],
               ["budget", "command", "group", "ideal", "ring", "size"]),
    "orbit-equality": (["--ring", "zmod:3", "--size", "4"],
                       ["budget", "command", "ideal", "ring", "size"]),
    "transitivity": (["--ring", "zmod:3", "--size", "2"],
                     ["budget", "command", "full_universe", "ideal", "ring",
                      "size"]),
    "kernel-test": (["--ring", "zmod:9", "--size", "2", "--ideal", "3",
                     "--samples", "0"],
                    ["cap", "command", "ideal", "ring", "samples", "seed",
                     "size"]),
    "square-ideal-test": (["--ring", "zmod:9", "--size", "2", "--ideal", "3",
                           "--samples", "0"],
                          ["cap", "command", "ideal", "ring", "samples",
                           "seed", "size"]),
    "splice-demo": (["--k", "1"],
                    ["command", "k", "length", "ring", "seed"]),
}

SHARED_DEFAULTS = {"seed": 0, "budget": 10 ** 7, "cap": 10 ** 6}

READ = [(cmd, opt) for cmd, (_, keys) in sorted(CHEAPEST.items())
        for opt in sorted(SHARED_DEFAULTS) if opt in keys]
UNREAD = [(cmd, opt) for cmd, (_, keys) in sorted(CHEAPEST.items())
          for opt in sorted(SHARED_DEFAULTS) if opt not in keys]


@pytest.mark.parametrize("command", sorted(CHEAPEST))
def test_parameters_name_only_what_the_command_reads(command, tmp_path):
    argv, keys = CHEAPEST[command]
    _, rep = _run([command] + argv, tmp_path)
    params = rep["parameters"]
    assert sorted(params) == keys
    for opt, default in SHARED_DEFAULTS.items():
        assert params.get(opt, default) == default
    blob = json.dumps(params, sort_keys=True).encode()
    assert rep["input-hash"] == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("command,option", UNREAD)
def test_unread_option_is_usage_error(command, option, tmp_path, capsys):
    argv = [command] + CHEAPEST[command][0] + ["--" + option, "3"]
    out = tmp_path / "u.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: unrecognized arguments: --%s 3\n" % option
    assert not out.exists()


@pytest.mark.parametrize("command,option", READ)
def test_read_option_is_accepted(command, option, tmp_path, capsys):
    argv = [command] + CHEAPEST[command][0]
    code, rep = _run(argv + ["--" + option, "3"], tmp_path)
    assert code in (0, 1) and rep["parameters"][option] == 3
    if option != "seed":  # budget and cap count, so they are >= 1
        _assert_usage_error(argv + ["--" + option, "0"], tmp_path, capsys)


def test_closed_stdout_pipe_exits_one_without_traceback():
    """A reader that closes the pipe early (``transvect ... | head -c``)
    makes the report's write fail: exit 1, and no traceback on stderr."""
    src = os.path.dirname(os.path.dirname(transvect.__file__))
    read, write = os.pipe()
    os.close(read)  # no reader is left, so every write to the pipe fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "transvect.cli", "square-ideal-test",
             "--ring", "zmod:9", "--size", "4", "--ideal", "3",
             "--samples", "2"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
