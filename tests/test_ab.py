"""The verdicts of ``tools/ab.py`` on made-up pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _verdict(base, head, better="lower", bound=0.1):
    pairs = [{"base": {"metrics": {"m": b}}, "head": {"metrics": {"m": h}}}
             for b, h in zip(base, head)]
    return ab.summarize(pairs, {"name": "m", "unit": "s", "better": better,
                                "bound": bound})["verdict"]


@pytest.mark.parametrize("base, head, better, verdict", [
    # wins every pair, by more than the base's quartile spread
    ([1.0, 1.5, 1.0, 1.5], [0.5, 0.6, 0.5, 0.6], "lower", "gain"),
    ([1.0, 1.01, 1.0, 1.01], [1.3, 1.31, 1.3, 1.31], "lower", "worse"),
    ([1.0, 1.01, 1.0, 1.01], [1.02, 1.03, 1.02, 1.03], "lower", "within bound"),
    # the base spreads past the bound: a small difference tells nothing
    ([1.0, 1.5, 1.0, 1.5], [1.05, 1.4, 1.05, 1.4], "lower", "unresolved"),
    ([1.0, 1.5, 1.0, 1.5], [1.2, 1.3, 1.2, 1.3], "higher", "unresolved"),
    # ... unless every head run is better than every base run
    ([1.0, 1.5, 1.0, 1.5], [1.6, 1.7, 1.6, 1.7], "higher", "within bound"),
])
def test_summarize_verdicts(base, head, better, verdict):
    assert _verdict(base, head, better) == verdict


@pytest.mark.parametrize("base, head, more", [
    ([(0, 100), (0, 100)], [(0, 90), (0, 90)], False),
    ([(1, 100), (0, 100)], [(1, 90), (0, 90)], True),   # 1/180 > 1/200
    ([(2, 100), (0, 100)], [(1, 90), (0, 90)], False),
    ([(0, 100), (0, 100)], [(0, 90), (1, 90)], True),
])
def test_calls_flags_a_head_that_fails_a_larger_share(base, head, more):
    pairs = [{side: {"failed": f, "attempted": a} for side, (f, a) in
              (("base", b), ("head", h))} for b, h in zip(base, head)]
    out = ab.calls(pairs)
    assert out["head_fails_more"] is more
    assert out["base"] == {"failed": sum(f for f, _ in base),
                           "attempted": sum(a for _, a in base)}


def _row(argv, code=0, stdout="{}\n", reason=None):
    return {"argv": argv, "code": code, "stdout": stdout, "reason": reason}


def test_compare_lists_calls_whose_code_or_stdout_differs():
    base = [_row(["girth", "a"]), _row(["mad", "b"], stdout='{"value": 2}\n'),
            _row(["star5", "c"], code=0), _row(["gen", "d"], reason="bad")]
    head = [_row(["girth", "a"]), _row(["mad", "b"], stdout='{"value": 3}\n'),
            _row(["star5", "c"], code=3, reason="exit 3, expected 0"),
            _row(["gen", "d"], reason="bad")]
    assert ab.compare(base, head) == {
        "calls": 4, "differ": [["mad", "b"], ["star5", "c"]],
        "incorrect": {"base": [["gen", "d"]],
                      "head": [["star5", "c"], ["gen", "d"]]}}
    assert ab.compare(base, base)["differ"] == []
    with pytest.raises(ValueError):  # rounds of different workloads
        ab.compare(base, head[:3])
