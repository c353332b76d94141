"""Certification-throughput benchmark for transvect.

    python3 benchmarks/run.py --workload symbolic --seed 1 --seconds 36 --trace 0

Runs one workload (``symbolic``, ``orbits`` or ``finite``; see
``workloads.py`` and README.md) closed-loop in this process, on one
thread, calling the public API of the ``transvect`` sources under
``src/``.  It repeats whole passes over the workload until ``--seconds``
is used up (at least two passes), checks every outcome against the
frozen values, prints each metric on its own line with its unit, and
prints one JSON result object as the last line.

``--trace 0`` reports the end-to-end metrics, with times corrected to
a reference host speed sampled during each pass (``hostspeed.py``).
``--trace 1`` instead runs each step untraced and then traced, and
reports the per-layer metrics: self time and work counts per module
entry point, the ring and word probes, and the cost of tracing itself.

``--workload all`` runs the three workloads one after another, each in
its own process, and exits non-zero if any of them is not correct.
``--write-config`` regenerates BENCHMARK.json from the metric table
below.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 36
SETUP_REPEATS = 5
SETUP_SAMPLE_PERIOD_S = 0.01

WORKLOAD_WHY = {
    "symbolic": "dense products of polynomial-entry matrices: relation "
                "table, dilation certificates, symbolic decompositions; "
                "bypasses the orbit engine",
    "orbits": "per-row BFS orbit partitions over unimodular universes, "
              "one giant orbit and many small ones; bypasses symbolic "
              "rewriting",
    "finite": "the CLI over Z/m: ~22k small scalar products, subgroup "
              "closure, normal forms, splices and sampled relations",
}

# name, unit, better, bound
END_TO_END = [
    ("wall_s", "s", "lower", 0.15),
    ("checks_per_s", "1/s", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_LAYER_CALLS = ["relations.verify_relation", "rewrite.conjugate_first_rowcol",
                "rewrite.conjugate_square_ideal",
                "identities.splice_telescoping",
                "normalforms.reduce_alternating_local",
                "normalforms.reduce_alternating_semilocal", "cli.run"]

# name, unit, better
PER_LAYER = (
    [("rings.%s_ns.%s" % (op, kind), "ns", "lower")
     for op in ("add", "mul") for kind in ("zmod", "dyadic", "poly")]
    + [("rings.eq_ns.poly", "ns", "lower"),
       ("matrices.mul.calls", "count", "lower"),
       ("matrices.mul.self_s", "s", "lower"),
       ("words.eval.calls", "count", "lower"),
       ("words.eval.atoms", "count", "lower"),
       ("words.eval.self_s", "s", "lower")]
    + [("words.eval_us_per_atom.%s.n%d" % (kind, n), "us", "lower")
       for kind in ("zmod", "poly") for n in (4, 6, 8)]
    + [(name + suffix, unit, "lower") for name in _LAYER_CALLS
       for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + [("rewrite.atoms_emitted", "count", "lower"),
       ("rewrite.certificate_checks", "count", "lower"),
       ("orbits.enumerate_unimodular.self_s", "s", "lower"),
       ("orbits.enumerate_unimodular.rows", "count", "lower"),
       ("orbits.generators_for.self_s", "s", "lower"),
       ("orbits.generators_for.generators", "count", "lower"),
       ("orbits.orbit_partition.self_s", "s", "lower"),
       ("orbits.orbit_partition.rows_per_s", "1/s", "higher"),
       ("orbits.orbit_partition.multiplications", "count", "lower"),
       ("orbits.orbit_partition.bfs_rounds", "count", "lower"),
       ("orbits.orbit_partition.useful_ratio", "ratio", "higher"),
       ("orbits.subgroup_closure.self_s", "s", "lower"),
       ("orbits.subgroup_closure.elements", "count", "lower"),
       ("orbits.subgroup_closure.elements_per_s", "1/s", "higher"),
       ("trace.overhead_frac", "ratio", "lower")]
)

# Counters that must repeat bit-for-bit for a given workload and seed.
EXACT_COUNTERS = ["matrices.mul.calls", "words.eval.atoms",
                  "orbits.orbit_partition.multiplications",
                  "orbits.subgroup_closure.elements",
                  "rewrite.atoms_emitted"]


def config():
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": why}
                      for w, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# -- run metadata ------------------------------------------------------


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines():
    pkg = os.path.join(SRC, "transvect")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def metadata(seed):
    import numpy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "src_lines": _src_lines(),
    }


# -- passes --------------------------------------------------------------


def run_pass(steps):
    """Run every step once, sampling host speed meanwhile.

    Returns (corrected seconds, raw seconds, host speed, attempted,
    failed); see hostspeed.py.
    """
    from hostspeed import SpeedSampler
    gc.collect()
    attempted = failed = 0
    with SpeedSampler() as sampler:
        for step in steps:
            a, f = step()
            attempted += a
            failed += f
    return (sampler.corrected_s(), sampler.own_s, sampler.speed(),
            attempted, failed)


def traced_pass(steps):
    """Run each step untraced and then at once traced, so that both runs
    of a step meet the same host speed.

    Returns (tracer, untraced seconds, traced seconds, attempted,
    failed); the tracer holds the spans of the traced runs only.
    """
    from spans import Tracer
    gc.collect()
    tracer = Tracer()
    plain = traced = 0.0
    attempted = failed = 0
    for step in steps:
        t0 = time.perf_counter()
        a, f = step()
        plain += time.perf_counter() - t0
        (a2, f2), seconds = tracer.run(step)
        traced += seconds
        attempted += a + a2
        failed += f + f2
    return tracer, plain, traced, attempted, failed


def _repeat(fn, seconds, at_least):
    """Call fn() at least ``at_least`` times, then while another call
    is expected to end within ``seconds`` of the start."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(fn())
        now = time.perf_counter()
        if len(out) >= at_least and now + (now - t0) - start > seconds:
            return out


def measure_setup(workload, seed):
    """Median over fresh interpreters of import + input building,
    corrected for host speed; also returns the raw median."""
    values, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr)
        out = json.loads(proc.stdout.splitlines()[-1])
        values.append(out["setup_s"])
        raw.append(out["raw_setup_s"])
    return statistics.median(values), statistics.median(raw)


def setup_only(workload, seed, t0):
    """Import ``transvect`` and build the inputs, timed from ``t0``.

    numpy is imported before the speed sampler starts, because its
    calibration kernel uses numpy; its import is still timed, and
    corrected by the speed sampled during the rest of the set-up.
    """
    import numpy  # noqa: F401
    from hostspeed import SpeedSampler
    with SpeedSampler(period_s=SETUP_SAMPLE_PERIOD_S) as sampler:
        import_library()
        import workloads
        workloads.build(workload, seed)
    own = time.perf_counter() - t0 - sampler.busy_s
    print(json.dumps({"setup_s": own * sampler.speed(),
                      "raw_setup_s": own}))


def end_to_end(steps, seconds):
    passes = _repeat(lambda: run_pass(steps), seconds, at_least=2)
    # Corrected for host speed, which on a shared host varies far more
    # than the passes of one run do (see README.md).
    wall = statistics.median(p[0] for p in passes)
    outcomes = passes[0][3]
    attempted = sum(p[3] for p in passes)
    failed = sum(p[4] for p in passes)
    info = {"passes": len(passes),
            "pass_wall_s": [round(p[0], 4) for p in passes],
            "pass_raw_wall_s": [round(p[1], 4) for p in passes],
            "pass_host_speed": [round(p[2], 4) for p in passes]}
    return {"wall_s": wall, "checks_per_s": outcomes / wall}, \
        attempted, failed, info


def per_layer(steps, seconds):
    import probes
    from spans import SPAN_NAMES
    passes = _repeat(lambda: traced_pass(steps), seconds, at_least=1)
    per_pass = [p[0].self_times() for p in passes]
    calls = per_pass[-1][0]

    m = probes.ring_probe()
    m.update(probes.word_probe())
    for name in SPAN_NAMES:
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = statistics.median(p[1][name] for p in per_pass)
    m.update(passes[-1][0].counts)

    def rate(num, den):
        return m.get(num, 0) / m[den] if m.get(den) else 0.0

    part = "orbits.orbit_partition."
    closure = "orbits.subgroup_closure."
    m[part + "rows_per_s"] = rate(part + "rows", part + "self_s")
    m[part + "useful_ratio"] = rate(part + "rows", part + "multiplications")
    m[closure + "elements_per_s"] = rate(closure + "elements",
                                         closure + "self_s")
    plain = sum(p[1] for p in passes)
    traced = sum(p[2] for p in passes)
    m["trace.overhead_frac"] = traced / plain - 1
    attempted = sum(p[3] for p in passes)
    failed = sum(p[4] for p in passes)
    info = {"passes": len(passes), "untraced_s": plain, "traced_s": traced}
    return {n: m.get(n, 0) for n, *_ in PER_LAYER}, attempted, failed, info


# -- entry points ----------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=list(WORKLOAD_WHY) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--write-config", action="store_true",
                   help="regenerate BENCHMARK.json and exit")
    return p.parse_args(argv)


def import_library():
    if not os.path.isdir(os.path.join(SRC, "transvect")):
        sys.exit("benchmark: no transvect sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _print_metrics(metrics, units):
    for name, value in metrics.items():
        print("%-46s %16.6f %s" % (name, value, units[name]))


def run_workload(args, workloads):
    meta = metadata(args.seed)
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    if args.trace:
        steps = workloads.build(args.workload, args.seed)
        metrics, attempted, failed, info = per_layer(steps, args.seconds)
    else:
        setup, raw_setup = measure_setup(args.workload, args.seed)
        steps = workloads.build(args.workload, args.seed)
        metrics, attempted, failed, info = end_to_end(steps, args.seconds)
        metrics["setup_s"] = setup
        info["raw_setup_s"] = raw_setup
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta["loadavg_end"] = os.getloadavg()
    meta.update(info)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                               args.trace))
    print("meta " + json.dumps(meta, sort_keys=True))
    print("%-46s %16.6f %s" % ("failed_frac", failed / attempted, "ratio"))
    _print_metrics(metrics, units)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    code = 0
    for workload in WORKLOAD_WHY:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            code = 1
    return code


def main(argv=None):
    args = _parse(argv)
    if args.write_config:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(config(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    t0 = time.perf_counter()
    if args.setup_only:
        setup_only(args.workload, args.seed, t0)
        return 0
    import_library()
    import workloads
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
