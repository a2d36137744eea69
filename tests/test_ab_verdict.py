"""The verdict that ``benchmarks/ab_inprocess.py`` prints for each metric:
a gain needs nine tenths of the pairs and a median gap beyond the base's
interquartile range, a loss a median worse by more than the bound."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "ab_inprocess.py"


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


# the base's ten timings: median 10.5, quartiles 9.875 and 11.125 (IQR 1.25)
BASE = [9.0, 10.0, 11.0, 12.0, 9.5, 10.5, 11.5, 10.0, 11.0, 10.5]


@pytest.mark.parametrize("change, want", [
    ([b - 2.0 for b in BASE], "gain"),  # 10/10 wins, gap 2 > 1.25
    ([b - 2.0 for b in BASE[:9]] + [BASE[9] + 1.0], "gain"),  # 9/10 wins
    ([b - 2.0 for b in BASE[:8]] + [b + 1.0 for b in BASE[8:]], "unresolved"),  # 8/10 wins
    ([b - 2.0 for b in BASE[:8]] + BASE[8:], "unresolved"),  # 8 wins, 2 ties: a tie is no win
    ([b - 1.0 for b in BASE], "unresolved"),  # 10/10 wins, gap 1 < 1.25
    ([b * 1.3 for b in BASE], "worse"),  # 30% worse, bound 25%
    ([b * 1.2 for b in BASE], "unresolved"),  # 20% worse, within the bound
])
def test_verdict_follows_the_pair_rule(verdict, change, want):
    assert verdict(BASE, change, 0.25) == want
