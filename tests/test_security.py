"""Tests for the HE-standard security placement module."""

import pytest

from repro.params import hpca19, mini, table5_large
from repro.security import (
    HE_STANDARD_MAX_LOG2_Q,
    assess,
    estimate_security_level,
    max_log2_q,
    meets_security,
)
from scaffolding import toy


class TestStandardTable:
    def test_table_is_monotone_in_n(self):
        """Bigger rings tolerate wider moduli at every level."""
        degrees = sorted(HE_STANDARD_MAX_LOG2_Q)
        for level in (128, 192, 256):
            widths = [HE_STANDARD_MAX_LOG2_Q[n][level] for n in degrees]
            assert widths == sorted(widths)

    def test_table_is_monotone_in_level(self):
        """Higher security tolerates narrower moduli at every degree."""
        for row in HE_STANDARD_MAX_LOG2_Q.values():
            assert row[128] > row[192] > row[256]

    def test_max_log2_q_lookup(self):
        assert max_log2_q(4096, 128) == 109
        assert max_log2_q(1000, 128) is None

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            max_log2_q(4096, 100)


class TestPlacement:
    def test_paper_set_is_below_the_128_bit_line(self):
        """The paper's 180-bit q exceeds the 109-bit cap at n = 4096 —
        consistent with its explicit 80-bit (not 128-bit) target."""
        params = hpca19()
        assert not meets_security(params, 128)
        assessment = assess(params)
        assert not assessment.meets_128
        assert "80-bit" in assessment.notes

    def test_paper_heuristic_near_80_bits(self):
        assessment = assess(hpca19())
        assert 70 <= assessment.classical_bits_estimate <= 95

    def test_large_point_also_80_bit_class(self):
        """Table V doubles n *and* log q, preserving the security level."""
        paper = assess(hpca19()).classical_bits_estimate
        large = assess(table5_large()).classical_bits_estimate
        assert abs(paper - large) < 10

    def test_toy_sets_fail_closed(self):
        """Test-only rings are not tabulated and must report insecure."""
        assert estimate_security_level(toy()) == 0
        assert estimate_security_level(mini()) == 0

    def test_a_128_bit_set_passes(self):
        """A (4096, <=109-bit) set clears the standard's 128-bit line."""
        from repro.params import PRIME_BITS, ParameterSet, _ntt_primes

        primes = _ntt_primes(PRIME_BITS, 4096, 5)
        params = ParameterSet("seal_like", 4096, primes[:3], primes[3:],
                              t=2, sigma=3.2)
        assert params.log2_q <= 109
        assert meets_security(params, 128)


class TestCliSecurity:
    def test_cli_security_command(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["security"]) == 0
        output = capsys.readouterr().out
        for params in (hpca19(), table5_large(), mini()):
            placed = assess(params)
            assert (f"{params.name}: n={params.n}, "
                    f"log2(q)={params.log2_q}") in output
            assert placed.notes in output
        assert "HE-standard 128-bit compliant: no" in output
