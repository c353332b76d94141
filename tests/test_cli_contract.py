"""The CLI's exit contract, fuzzed: every argv ends in exit 0 or 1 with
a JSON report on stdout whose ``ok`` matches the code, or in exit 2
with one ``usage error:`` line on stderr; never a traceback.

The argv come from a per-subcommand grammar that mixes valid and
malformed values.  Each runs in-process through ``cli.run`` under a
``signal.alarm``, so a hang fails the example instead of the suite.
Every option that bounds the work (samples, caps, budgets, sizes) is
always given, and small, so an example takes well under a second; a
missing or malformed required option is still drawn where it is cheap.
"""

import contextlib
import io
import json
import signal

from hypothesis import HealthCheck, given, settings, strategies as st

from transvect.cli import run

ALARM_S = 30


def _mostly(good, bad):
    """Values of ``good``, and one time in eight one of the texts ``bad``."""
    return st.integers(0, 7).flatmap(
        lambda r: st.sampled_from(bad) if r == 7 else good)


def _ints(low, high):
    """Integer texts in low..high, or texts that are not such integers."""
    return _mostly(st.integers(low, high).map(str), ["x", "-1", "2.5", ""])


def _sizes(*good):
    """The sizes ``good`` as texts, or a size text that is malformed or
    that most commands refuse."""
    return _mostly(st.sampled_from([str(n) for n in good]),
                   ["0", "3", "x", "-2"])


RING = _mostly(st.sampled_from(["zmod:3", "zmod:5", "zmod:9", "zmod:15",
                                "zmod:27", "gf:5", "gf:7"]),
               ["zmod:8", "zmod:1", "zmod:x", "gf:9", "gf:", "dyadic",
                "poly:dyadic:a,b", "poly:zmod:9:x", "zmod:-9", "",
                "zmod:9223372036854775783"])
IDEAL = _mostly(st.sampled_from(["0", "1", "3", "5", "9", "27", "full"]),
                ["vars:x", "x", "-3", ""])
SEED = _ints(0, 3)
FLAG = None  # an option that takes no value

# subcommand -> (options always given, options given seven times in
# eight); each option maps to the strategy of its value text
GRAMMAR = {
    "verify-relations": ({"--samples": _ints(0, 2), "--n": _ints(0, 2)},
                         {"--ring": RING, "--symbolic": FLAG, "--seed": SEED}),
    "dilate": ({}, {"--sizes": st.sampled_from(["4", "3", "5", "x", "4,x",
                                                  ""])}),
    "decompose": ({"--samples": _ints(0, 20), "--n": _ints(0, 2)},
                  {"--ring": RING, "--symbolic": FLAG, "--seed": SEED}),
    "reduce-form": ({"--samples": _ints(0, 3), "--n": _ints(0, 3)},
                    {"--ring": RING, "--ideal": IDEAL, "--seed": SEED}),
    "orbits": ({"--size": _sizes(1, 2, 3, 4), "--budget": _ints(0, 300)},
               {"--ring": RING, "--ideal": IDEAL,
                "--group": st.sampled_from(["e", "esp", "e-rel", "esp-rel",
                                            "e1", "esp1", "x"])}),
    "orbit-equality": ({"--size": _sizes(4, 6), "--budget": _ints(0, 300)},
                       {"--ring": RING, "--ideal": IDEAL}),
    "transitivity": ({"--size": _sizes(2, 3, 4), "--budget": _ints(0, 300)},
                     {"--ring": RING, "--ideal": IDEAL,
                      "--full-universe": FLAG}),
    "kernel-test": ({"--size": _sizes(2, 4, 6), "--samples": _ints(0, 30),
                     "--cap": _ints(0, 3000)},
                    {"--ring": RING, "--ideal": IDEAL, "--seed": SEED}),
    "square-ideal-test": ({"--size": _sizes(2, 4, 6),
                           "--samples": _ints(0, 30),
                           "--cap": _ints(0, 3000)},
                          {"--ring": RING, "--ideal": IDEAL, "--seed": SEED}),
    "splice-demo": ({"--k": _ints(0, 4), "--length": _ints(0, 4)},
                    {"--ring": RING, "--seed": SEED}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    always, maybe = GRAMMAR[command]
    chosen = list(always.items()) + [
        item for item in maybe.items() if draw(st.integers(0, 7)) < 7]
    argv = [command]
    for flag, values in draw(st.permutations(chosen)):
        argv.append(flag)
        if values is not None:
            argv.append(draw(values))
    return argv


class _Hang(Exception):
    pass


def _alarm(signum, frame):
    raise _Hang("no exit within %d s" % ALARM_S)


def run_captured(argv):
    """(exit code, stdout, stderr) of ``cli.run(argv)`` in-process, or
    _Hang past ALARM_S seconds."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run_captured(argv)
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: "), \
            (argv, err)
    else:
        assert code in (0, 1), (argv, code)
        assert err == "", (argv, err)
        assert json.loads(out)["ok"] is (code == 0), (argv, out)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_keeps_its_exit_contract(argv):
    check_contract(argv)


def test_the_contract_check_sees_each_exit_kind():
    """One argv per exit code passes the check; argparse's multi-line
    usage (printed only for an argv with no subcommand, outside the
    grammar) and its help exit do not."""
    kernel = ["kernel-test", "--ring", "zmod:9", "--size", "2", "--ideal", "3"]
    codes = []
    for argv in (kernel + ["--samples", "5", "--cap", "1000"],
                 kernel + ["--samples", "5", "--cap", "10"],
                 kernel + ["--samples", "5", "--no-such-option"]):
        check_contract(argv)
        codes.append(run_captured(argv)[0])
    assert codes == [0, 1, 2]
    for outside in ([], kernel + ["-h"]):
        try:
            check_contract(outside)
        except (AssertionError, SystemExit):
            continue
        raise AssertionError("%r passed the contract check" % (outside,))
