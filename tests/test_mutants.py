"""Tier-1's share of the mutant catalogue (tests/mutants.py).

Running the mutants takes a subprocess per mutant (``make mutants``);
tier-1 checks only that every mutant still applies: its old text
appears exactly once in the function it names, and the tests that must
kill it exist.
"""

import pytest

from mutants import CATALOGUE, ROOT, stale


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_mutant_old_text_appears_once_in_its_function(mutant):
    assert stale(mutant) is None, f"{mutant.name}: {stale(mutant)}"


def test_mutants_are_named_once_and_name_real_tests():
    names = [mutant.name for mutant in CATALOGUE]
    assert len(set(names)) == len(names)
    for mutant in CATALOGUE:
        assert mutant.kills, mutant.name
        for node in mutant.kills:
            assert (ROOT / node.split("::")[0]).is_file(), node
