"""Command-line front end: identity suites, decompositions, form
reduction, orbit experiments, and JSON report emission for CI.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed,
2 = usage error.  Reports are deterministic for fixed argv + seed
(timing fields aside).  Each subcommand takes only the shared options
(--seed, --budget, --cap) it reads, so a report's parameters and
input-hash name real inputs only.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time
from functools import cache

from .identities import splice_telescoping
from .matrices import matrix_from_json
from .normalforms import form_blocks, matrix_block, reduce_blocks
from .orbits import (GroupSpec, check_dim0_transitivity, check_orbit_equality,
                     enumerate_unimodular, generators_for,
                     kernel_membership_test, orbit_partition,
                     square_ideal_inclusion_test)
from .relations import suite_summary, verify_relation_suite
from .rewrite import conjugate_first_rowcol
from .rings import (X, Y, DescriptorError, Dyadic, Ideal, PolyRing,
                    RingError, Zmod, parse_ideal, parse_ring)
from .words import GeneratorWord, decomposition_counts, lin, se, word_to_json


class RunReport:
    """Deterministic JSON report: ok = conjunction of outcome flags."""

    def __init__(self, command, parameters):
        self.command = command
        self.parameters = parameters
        self.started = time.time()
        self.results = []

    def add(self, name, ok, **extra):
        entry = {"name": name, "ok": bool(ok)}
        entry.update((k, v) for k, v in extra.items() if k != "ok")
        self.results.append(entry)

    def finish(self):
        blob = json.dumps(self.parameters, sort_keys=True).encode()
        return {
            "command": self.command,
            "parameters": self.parameters,
            "input-hash": hashlib.sha256(blob).hexdigest(),
            "started": self.started,
            "elapsed": time.time() - self.started,
            "results": self.results,
            "ok": all(r["ok"] for r in self.results),
        }


def _emit(report, out_path):
    data = report.finish()
    text = json.dumps(data, indent=2, default=str)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("usage error: cannot write --out %s: %r" % (out_path, exc),
                  file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if data["ok"] else 1


# -- subcommands ------------------------------------------------------


def _cmd_verify_relations(args, report, ring, _ideal):
    if args.symbolic or args.samples is None:
        reports = verify_relation_suite(args.n, mode="symbolic")
    else:
        reports = verify_relation_suite(args.n, ring=ring, mode="sampled",
                                        samples=args.samples, seed=args.seed)
    summary = suite_summary(reports)
    report.add("relations", summary["total"] > 0 and summary["failures"] == 0,
               **summary)


def _dilation_ring():
    return PolyRing(Dyadic(), ("a", X, Y, "x1", "x2"))


def _cmd_dilate(args, report, _ring, _ideal):
    """Certify every conjugation case of the first-row/column calculus."""
    ring = _dilation_ring()
    ideal = Ideal.vars(ring, ("x1", "x2"))
    a, x_ = ring.var("a"), ring.var("x1")
    x, y = ring.var(X), ring.var(Y)
    m = y * y * y * y * x * (ring.one() + x)
    sizes = [int(s) for s in args.sizes.split(",")]  # checked by _sizes
    for size in sizes:
        for k in range(2, size + 1):
            for conj in (se(1, k, a), se(k, 1, x_)):
                for j in range(2, size + 1):
                    for tgt in (se(1, j, m), se(j, 1, x_ * m)):
                        res = conjugate_first_rowcol(ring, size, conj, tgt,
                                                     ideal)
                        name = "size%d ^%r %r" % (size, conj, tgt)
                        report.add(name, res.certificate, checks=res.checks,
                                   atoms=len(res.rhs.atoms))


def _symbolic_q_ring(m):
    names = tuple("q%d" % k for k in range(1, m + 1)) + ("al", "be")
    return PolyRing(Dyadic(), names)


def _cmd_decompose(args, report, ring, _ideal):
    m = 2 * args.n
    if args.symbolic:
        ring = _symbolic_q_ring(m)
        q = [ring.var("q%d" % k) for k in range(1, m + 1)]
        alphas, total = [(q, ring.var("al"), ring.var("be"))], 1
    else:
        rng = random.Random(args.seed)
        # q, then alpha, then beta per sample, drawn as each block is read
        alphas = (([ring.sample(rng) for _ in range(m)], ring.sample(rng),
                   ring.sample(rng)) for _ in range(args.samples))
        total = args.samples
    rho_ok, mu_ok = decomposition_counts(ring, args.n, alphas)
    for name, ok in (("rho-decomposition", rho_ok), ("mu-decomposition", mu_ok)):
        report.add(name, ok == total > 0, passed=ok, total=total)


def _read_form(path, ring):
    """The --input form: a usage error if unreadable or not over --ring."""
    try:
        with open(path) as fh:
            phi = matrix_from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            RingError) as exc:
        raise _UsageError("cannot read --input %s: %r" % (path, exc)) from None
    if phi.ring is not ring:
        raise _UsageError("--input form is over %s but --ring is %s"
                          % (phi.ring, ring))
    return phi


def _cmd_reduce_form(args, report, ring, ideal):
    if args.input:
        blocks = [matrix_block(_read_form(args.input, ring))]
    else:
        blocks = form_blocks(ring, args.n, random.Random(args.seed), ideal,
                             args.samples)
    passed, total, last = reduce_blocks(ring, blocks, ideal)
    witness = None
    if last is not None:
        words = [word_to_json(eps) for eps in last.values()]
        # a prime-power ring is the table's one prime: its word, unkeyed
        witness = words[0] if len(words) == 1 else dict(zip(last, words))
    report.add("reduce-form", passed == total > 0,
               passed=passed, total=total, witness=witness)


_GROUPS = {"e": "linear-E", "esp": "symplectic-ESp",
           "e-rel": "linear-E-relative", "esp-rel": "symplectic-ESp-relative",
           "e1": "first-rowcol-E1", "esp1": "first-rowcol-ESp1"}


def _cmd_orbits(args, report, ring, ideal):
    spec = GroupSpec(_GROUPS[args.group], args.size, ring, ideal)
    if ideal is not None and spec.kind == "absolute":
        raise _UsageError("--group %s takes no --ideal" % args.group)
    universe = enumerate_unimodular(ring, args.size, spec.universe_ideal,
                                    args.budget)
    part = orbit_partition(universe, generators_for(spec), ring,
                           spec.universe_ideal or Ideal.full(ring))
    report.add("orbits", True, universe_size=len(universe),
               orbit_count=part.orbit_count(), orbit_sizes=part.orbit_sizes())


def _cmd_orbit_equality(args, report, ring, ideal):
    rep = check_orbit_equality(ring, args.size, ideal, budget=args.budget)
    report.add("orbit-equality", rep["equal"] and rep["closed"], **rep)


def _cmd_transitivity(args, report, ring, ideal):
    rep = check_dim0_transitivity(ring, args.size, ideal, budget=args.budget,
                                  full_universe=args.full_universe)
    report.add("transitivity", rep["transitive"], **rep)


def _cmd_kernel_test(args, report, ring, ideal):
    rep = kernel_membership_test(ring, args.size, ideal,
                                 samples=args.samples, seed=args.seed,
                                 cap=args.cap)
    report.add("kernel-membership", rep.pop("ok"), **rep)


def _cmd_square_ideal_test(args, report, ring, ideal):
    rep = square_ideal_inclusion_test(ring, args.size, ideal,
                                      samples=args.samples, seed=args.seed,
                                      cap=args.cap)
    report.add("square-ideal", rep.pop("ok"), **rep)


def _cmd_splice_demo(args, report, base, _ideal):
    if not isinstance(base, Zmod):
        raise RingError("splice demo needs a finite Z/m base ring")
    ring = PolyRing(base, (X,))
    rng = random.Random(args.seed)
    x = ring.var(X)
    atoms = []
    for _ in range(args.length):
        i, j = rng.sample(range(1, 4), 2)
        atoms.append(lin(i, j, ring.element(rng.randrange(base.m)) * x))
    alpha = GeneratorWord(ring, 3, atoms)
    pairs = []
    total = 0
    for _ in range(args.k - 1):
        c, b = rng.randrange(base.m), rng.randrange(base.m)
        pairs.append((c, b))
        total += c * b
    pairs.append((1, (1 - total) % base.m))
    factors = splice_telescoping(alpha, pairs)  # raises on mismatch
    report.add("splice", True, k=args.k, factor_count=len(factors),
               word_length=args.length)


# -- argument parsing -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _at_least(low):
    """An argparse type: an integer >= low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d"
                                             % (low, value))
        return value
    return integer


def _even_at_least(low):
    """An argparse type: an even integer >= low."""
    at_least = _at_least(low)

    def integer(text):
        value = at_least(text)
        if value % 2:
            raise argparse.ArgumentTypeError("must be even, got %d" % value)
        return value
    return integer


def _sizes(text):
    """An argparse type: comma-separated dilation sizes, each even (the
    cases are symplectic) and >= 4 (the opposite-root schedule needs
    it); the text itself is kept."""
    try:
        ok = all(int(part) >= 4 and int(part) % 2 == 0
                 for part in text.split(","))
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            "expected comma-separated even sizes >= 4, got %r" % (text,))
    return text


@cache  # parse_args leaves the parser as it was
def _build_parser():
    top = _Parser(prog="transvect")
    sub = top.add_subparsers(dest="command")

    shared = {"seed": {"type": int, "default": 0},
              "budget": {"type": _at_least(1), "default": 10 ** 7},
              "cap": {"type": _at_least(1), "default": 10 ** 6}}

    def add(name, func, *options):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--out")
        for option in options:
            p.add_argument("--" + option, **shared[option])
        return p

    p = add("verify-relations", _cmd_verify_relations, "seed")
    p.add_argument("--ring", default="gf:5")
    p.add_argument("--n", type=_at_least(0), default=2)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--samples", type=_at_least(0))

    p = add("dilate", _cmd_dilate)
    p.add_argument("--sizes", type=_sizes, default="4")

    p = add("decompose", _cmd_decompose, "seed")
    p.add_argument("--ring", default="zmod:9")
    p.add_argument("--n", type=_at_least(0), default=2)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--samples", type=_at_least(0), default=100)

    p = add("reduce-form", _cmd_reduce_form, "seed")
    p.add_argument("--ring", default="zmod:27")
    p.add_argument("--ideal")
    p.add_argument("--input")
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--samples", type=_at_least(0), default=10)

    p = add("orbits", _cmd_orbits, "budget")
    p.add_argument("--ring", required=True)
    p.add_argument("--size", type=_at_least(1), required=True)
    p.add_argument("--group", choices=sorted(_GROUPS), default="e")
    p.add_argument("--ideal")

    p = add("orbit-equality", _cmd_orbit_equality, "budget")
    p.add_argument("--ring", required=True)
    p.add_argument("--size", type=_even_at_least(4), required=True)
    p.add_argument("--ideal")

    p = add("transitivity", _cmd_transitivity, "budget")
    p.add_argument("--ring", required=True)
    p.add_argument("--size", type=_at_least(2), required=True)
    p.add_argument("--ideal")
    p.add_argument("--full-universe", action="store_true")

    p = add("kernel-test", _cmd_kernel_test, "seed", "cap")
    p.add_argument("--ring", required=True)
    p.add_argument("--size", type=_even_at_least(2), required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--samples", type=_at_least(0), default=1000)

    p = add("square-ideal-test", _cmd_square_ideal_test, "seed", "cap")
    p.add_argument("--ring", required=True)
    p.add_argument("--size", type=_even_at_least(2), required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--samples", type=_at_least(0), default=200)

    p = add("splice-demo", _cmd_splice_demo, "seed")
    p.add_argument("--ring", default="zmod:9")
    p.add_argument("--k", type=_at_least(1), default=3)
    p.add_argument("--length", type=_at_least(1), default=4)

    return top


def _parse_descriptors(args):
    """(ring, ideal) from --ring and --ideal, or None where absent.

    Parsed before any command runs, so malformed text is a usage error
    even where the command ignores it.
    """
    if getattr(args, "ring", None) is None:
        return None, None
    ring = parse_ring(args.ring)
    if getattr(args, "ideal", None) is None:
        return ring, None
    return ring, parse_ideal(ring, args.ideal)


def run(argv):
    """Dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and not callable(v)}
    report = RunReport(args.command, params)
    try:
        args.func(args, report, *_parse_descriptors(args))
    except (DescriptorError, _UsageError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except RingError as exc:
        report.add("error", False, message=str(exc))
    return _emit(report, args.out)


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (say `| head`): send what is left of
        # stdout, flushed again at exit, to devnull instead of the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
