"""Additional depth: textbook-FV reference internals and open-loop
server scheduling under Poisson arrivals."""

import numpy as np
import pytest

from repro.fv.encoder import Plaintext
from repro.fv.reference import TextbookFv, uniform_mod_big
from repro.nttmath.ntt import negacyclic_convolution
from repro.params import hpca19
from repro.serve import ServingRuntime
from repro.system.server import CostModel
from repro.system.workloads import JobKind, poisson_stream
from scaffolding import toy


class TestTextbookReference:
    @pytest.fixture(scope="class")
    def machinery(self, toy_context, toy_keys):
        textbook = TextbookFv(toy_context.params, seed=5)
        s_poly = textbook.poly_from_rns(toy_keys.secret.rns)
        return textbook, s_poly

    def test_textbook_add(self, machinery, toy_context, toy_keys, rng):
        textbook, s_poly = machinery
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct_a = textbook.ciphertext_from_rns(
            toy_context.encrypt(a, toy_keys.public)
        )
        ct_b = textbook.ciphertext_from_rns(
            toy_context.encrypt(b, toy_keys.public)
        )
        summed = textbook.add(ct_a, ct_b)
        expected = Plaintext((a.coeffs + b.coeffs) % params.t, params.t)
        assert textbook.decrypt(summed, s_poly) == expected

    def test_textbook_digit_relinearisation(self, machinery, toy_context,
                                            toy_keys, rng):
        """The textbook path's own relin (signed base-w WordDecomp)."""
        textbook, s_poly = machinery
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct_a = textbook.ciphertext_from_rns(
            toy_context.encrypt(a, toy_keys.public)
        )
        ct_b = textbook.ciphertext_from_rns(
            toy_context.encrypt(b, toy_keys.public)
        )
        rlk = textbook.relin_keygen(s_poly, base_bits=30)
        product = textbook.multiply(ct_a, ct_b, rlk)
        assert len(product) == 2
        expected = negacyclic_convolution(
            a.coeffs.tolist(), b.coeffs.tolist(), params.t
        )
        assert textbook.decrypt(product, s_poly).coeffs.tolist() \
            == expected

    def test_textbook_mult_chain(self, machinery, toy_context, toy_keys):
        """Two sequential textbook multiplications stay correct."""
        textbook, s_poly = machinery
        params = toy_context.params
        plain = Plaintext.from_list([1, 1], params.n, params.t)
        ct = textbook.ciphertext_from_rns(
            toy_context.encrypt(plain, toy_keys.public)
        )
        rlk = textbook.relin_keygen(s_poly, base_bits=30)
        squared = textbook.multiply(ct, ct, rlk)
        fourth = textbook.multiply(squared, squared, rlk)
        expected = plain.coeffs.tolist()
        for _ in range(2):
            expected = negacyclic_convolution(expected, expected, params.t)
        assert textbook.decrypt(fourth, s_poly).coeffs.tolist() == expected

    def test_uniform_mod_big_range(self, rng):
        modulus = hpca19().q
        values = uniform_mod_big(np.random.default_rng(3), 64, modulus)
        assert all(0 <= v < modulus for v in values)
        # 180-bit values: the high bits must actually vary.
        assert max(values).bit_length() > 170

    def test_textbook_rejects_undersized_q(self):
        from repro.errors import ParameterError
        from repro.params import ParameterSet
        from scaffolding import toy

        base = toy()
        # A Q that cannot hold the tensor product must be rejected.
        bad = ParameterSet("bad", base.n, base.q_primes,
                           base.p_primes[:1], t=2, sigma=3.2)
        with pytest.raises(ParameterError):
            TextbookFv(bad)


class TestPoissonScheduling:
    def test_poisson_stream_statistics(self):
        jobs = poisson_stream(rate_per_second=100, duration_seconds=10,
                              seed=1)
        assert 800 < len(jobs) < 1200  # ~1000 +- sampling noise
        arrivals = [j.arrival_seconds for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 10 for a in arrivals)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_stream(0, 1)
        with pytest.raises(ValueError):
            poisson_stream(10, -1)

    def test_underloaded_server_has_low_latency(self, paper_params):
        """At 25% load, latency stays near the bare service time."""
        cost = CostModel(paper_params)
        capacity = cost.mult_throughput_per_second()
        jobs = poisson_stream(capacity * 0.25, 1.0, seed=2)
        report = ServingRuntime(cost).run(jobs)
        service = cost.job_seconds(JobKind.MULT)
        assert report.latency_summary().mean < 2.5 * service

    def test_overloaded_server_builds_backlog(self, paper_params):
        """At 2x capacity the queue grows and mean latency blows up."""
        cost = CostModel(paper_params)
        capacity = cost.mult_throughput_per_second()
        light = ServingRuntime(cost).run(poisson_stream(capacity * 0.25, 1.0, seed=3))
        heavy = ServingRuntime(cost).run(poisson_stream(capacity * 2.0, 1.0, seed=3))
        assert heavy.latency_summary().mean \
            > 5 * light.latency_summary().mean

    def test_saturated_throughput_caps_at_capacity(self, paper_params):
        cost = CostModel(paper_params)
        capacity = cost.mult_throughput_per_second()
        report = ServingRuntime(cost).run(
            poisson_stream(capacity * 3.0, 1.0, seed=4)
        )
        assert report.throughput_per_second() <= capacity * 1.05


class TestCliRemainingCommands:
    def test_cli_sweep(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["sweep"]) == 0
        output = capsys.readouterr().out
        assert "coprocessor instances" in output
        assert "butterfly cores" in output

    def test_cli_verify(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["verify"]) == 0
        output = capsys.readouterr().out
        assert "PASS" in output
        assert "all configurations bit-exact" in output
