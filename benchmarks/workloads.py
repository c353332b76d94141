"""The three certification workloads, as lists of steps.

A step is a function that makes one call into the public API of
``transvect``.  Calling it returns ``(attempted, failed)``: the
outcomes it certified and how many of them failed or did not match the
values frozen below (recorded from the library at the time the
benchmark was defined).  ``build`` is the whole input set-up, so
``setup_s`` times it together with the import.
"""

import contextlib
import io
import json

import transvect
from transvect import cli
from transvect.rings import Dyadic, Ideal, PolyRing, Zmod
from transvect.words import se

def _mismatch(got, want):
    return 0 if got == want else 1


# -- symbolic: dense products of polynomial-entry matrices -------------


def _relations_step():
    reports = transvect.verify_relation_suite(2, mode="symbolic")
    bad = sum(not r["holds"] for r in reports)
    return len(reports), bad + _mismatch(len(reports), 164)


def _dilation_steps():
    """The criterion-9 case table at sizes 4 and 6: 136 certificates."""
    ring = PolyRing(Dyadic(), ("a", "X", "Y", "x1", "x2"))
    ideal = Ideal.vars(ring, ("x1", "x2"))
    a, x1 = ring.var("a"), ring.var("x1")
    x, y = ring.var("X"), ring.var("Y")
    m = y * y * y * y * x * (ring.one() + x)
    steps = []
    for size in (4, 6):
        for k in range(2, size + 1):
            for conj in (se(1, k, a), se(k, 1, x1)):
                for j in range(2, size + 1):
                    for tgt in (se(1, j, m), se(j, 1, x1 * m)):
                        def run(size=size, conj=conj, tgt=tgt):
                            res = transvect.conjugate_first_rowcol(
                                ring, size, conj, tgt, ideal)
                            return 1, int(not res.certificate)
                        steps.append(run)
    assert len(steps) == 136
    return steps


def _decompose_step(n):
    m = 2 * n
    ring = PolyRing(Dyadic(), tuple("q%d" % k for k in range(1, m + 1))
                    + ("t",))
    q = [ring.var("q%d" % k) for k in range(1, m + 1)]
    t = ring.var("t")
    psi = transvect.standard_form(ring, n)

    def run():
        rho = transvect.decompose_rho(ring, q, t).eval() == \
            transvect.rho_matrix(ring, q, t, psi)
        mu = transvect.decompose_mu(ring, q, t).eval() == \
            transvect.mu_matrix(ring, q, t, psi)
        return 2, int(not rho) + int(not mu)
    return run


def _square_ideal_step():
    ring = PolyRing(Dyadic(), ("z", "a", "b"))
    ideal = Ideal.vars(ring, ("a", "b"))
    z, a, b = ring.var("z"), ring.var("a"), ring.var("b")

    def run():
        res = transvect.conjugate_square_ideal(ring, 4, 1, 3, z, a, b, ideal,
                                               kl=(3, 1))
        return 1, int(not res.certificate)
    return run


def _symbolic(seed):
    return ([_relations_step] + _dilation_steps()
            + [_decompose_step(1), _decompose_step(2), _square_ideal_step()])


# -- orbits: per-row BFS over unimodular universes ---------------------


def _orbit_equality_step(m, size, gen, rows):
    ring = Zmod(m)
    ideal = Ideal.principal(ring, gen) if gen else None

    def run():
        rep = transvect.check_orbit_equality(ring, size, ideal)
        want = {"universe_size": rows, "linear_orbits": 1,
                "symplectic_orbits": 1, "equal": True, "closed": True}
        ok = all(rep[k] == v for k, v in want.items())
        return rows, 0 if ok else rows
    return run


def _transitivity_step():
    ring = Zmod(9)
    ideal = Ideal.principal(ring, 3)

    def run():
        rep = transvect.check_dim0_transitivity(ring, 4, ideal,
                                                full_universe=True)
        ok = (rep["universe_size"] == 6480 and rep["orbit_count"] == 80
              and rep["congruence_classes"] == 80 and rep["transitive"])
        return 6480, 0 if ok else 6480
    return run


def _orbits(seed):
    return [_orbit_equality_step(5, 6, None, 15624),
            _orbit_equality_step(27, 4, 3, 6561),
            _transitivity_step()]


# -- finite: the CLI over small finite rings, in-process ---------------


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, json.loads(buf.getvalue())


def _cli_step(argv, outcomes):
    """``outcomes(results)`` -> (attempted, failed) from the report."""
    def run():
        code, report = _run_cli(argv)
        attempted, failed = outcomes(report["results"])
        if code != 0 or not report["ok"]:
            failed = max(failed, 1)
        return attempted, failed
    return run


def _kernel(res):
    r, = res
    ok = r["closure_size"] == 59049 and r["members"] == r["samples"] == 1000
    return 1000, r["samples"] - r["members"] + int(not ok)


def _square_ideal(seed):
    def outcomes(res):
        r, = res
        ok = (r["closure_size"] == 6561 and r["samples"] == 200
              and r["members"] == 200
              and r["factored_members"] == r["factored"]
              and (seed != 0 or r["factored"] == 193))
        return 200, r["samples"] - r["members"] + int(not ok)
    return outcomes


def _passed_total(res):
    attempted = sum(r["total"] for r in res)
    return attempted, attempted - sum(r["passed"] for r in res)


def _splice(res):
    r, = res
    return 1, int(r["factor_count"] != 5)


def _relations(res):
    r, = res
    return r["total"], r["failures"] + _mismatch(r["total"], 164 * 3)


def _finite(seed):
    s = ["--seed", str(seed)]
    return [
        _cli_step(["kernel-test", "--ring", "zmod:9", "--size", "4",
                   "--ideal", "3", "--samples", "1000"] + s, _kernel),
        _cli_step(["square-ideal-test", "--ring", "zmod:9", "--size", "4",
                   "--ideal", "3", "--samples", "200"] + s,
                  _square_ideal(seed)),
        _cli_step(["reduce-form", "--ring", "zmod:27", "--samples", "20"] + s,
                  _passed_total),
        _cli_step(["reduce-form", "--ring", "zmod:27", "--ideal", "3",
                   "--samples", "20"] + s, _passed_total),
        _cli_step(["reduce-form", "--ring", "zmod:45", "--samples", "20"] + s,
                  _passed_total),
        _cli_step(["decompose", "--ring", "zmod:9", "--samples", "100"] + s,
                  _passed_total),
        _cli_step(["splice-demo", "--ring", "zmod:25", "--k", "5"] + s,
                  _splice),
        _cli_step(["verify-relations", "--ring", "gf:5", "--samples", "3"] + s,
                  _relations),
    ]


def build(name, seed):
    """The workload's steps; ``finite`` passes ``seed`` to every --seed."""
    return {"symbolic": _symbolic, "orbits": _orbits,
            "finite": _finite}[name](seed)
