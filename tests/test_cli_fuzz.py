"""Config fuzzing of the point-set subcommands.

Every config ends in one of three ways: it runs (exit 0), it fails its
verdict (exit 1) or it is refused with a one-line reason (exit 2).  No
config may end in an escaping exception or a traceback on stderr.  Sizes
stay small so the whole property runs in a few seconds, but the values
reach past the valid ranges: zero and negative moduli, windows and caps,
densities outside [0, 1], too-short probes, non-increasing windows.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latspec.cli import main

_INT = st.integers(-3, 9)


def _vec(rank):
    return st.lists(st.integers(-6, 6), min_size=max(rank, 0), max_size=max(rank, 0))


def _sets(rank):
    leaves = st.one_of(
        st.just({"kind": "full"}),
        st.builds(
            lambda n, o: {"kind": "congruence", "modulus": n, "offset": o},
            st.integers(-1, 7),
            _vec(rank),
        ),
        st.builds(
            lambda d, s: {"kind": "random", "density": d, "seed": s},
            st.sampled_from(["0", "1", "1/2", "1/3", "3/2", "-1/4", "1/0"]),
            st.integers(0, 2**64 - 1),
        ),
        st.builds(
            lambda pts: {"kind": "explicit", "points": pts},
            st.lists(_vec(rank), max_size=8),
        ),
        st.just({"kind": "mystery"}),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda b, o: {"kind": "translate", "base": b, "offset": o}, kids, _vec(rank)),
            st.builds(lambda ps: {"kind": "union", "parts": ps}, st.lists(kids, max_size=3)),
            st.builds(lambda ps: {"kind": "intersection", "parts": ps}, st.lists(kids, max_size=3)),
        ),
        max_leaves=4,
    )


@st.composite
def _configs(draw):
    rank = draw(st.integers(0, 3))
    cfg = {"rank": rank, "set": draw(_sets(rank))}
    experiment = draw(st.sampled_from(["volume-spectrum", "pattern-search", "density"]))
    cfg["experiment"] = experiment
    # keep the window small enough that a rank-3 scan stays fast
    window = draw(st.integers(-2, 2 if rank == 3 else 4))
    if experiment == "volume-spectrum":
        cfg["window"] = window
        if draw(st.booleans()):
            cfg["cap"] = draw(st.integers(-2, 40))
        if draw(st.booleans()):
            cfg["ap_max"] = draw(st.integers(-1, 4))
    elif experiment == "pattern-search":
        cfg["window"] = window
        p = draw(st.integers(0, 3))
        cfg["p"] = p
        cfg["probes"] = draw(
            st.lists(st.lists(_vec(rank), min_size=max(p - 2, 0), max_size=p), max_size=2)
        )
        cfg["bounds"] = {"n_max": draw(_INT), "m_max": draw(_INT), "lambda_count": draw(_INT)}
    else:
        cfg["windows"] = draw(st.lists(st.integers(-2, 6), max_size=4))
    if draw(st.booleans()):
        del cfg[draw(st.sampled_from(sorted(k for k in cfg if k != "experiment")))]
    return cfg


@given(_configs())
# a cap of -1 used to end in an IndexError traceback on the int64 scan
@example({"experiment": "volume-spectrum", "rank": 2, "window": 2, "set": {"kind": "full"}, "cap": -1})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_point_set_configs_exit_0_1_or_2_without_traceback(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([cfg["experiment"], "--config", path, "--out", os.path.join(tmp, "r.json")])
    assert code in (0, 1, 2), code
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
