"""Tests for the three cloud applications (paper Sec. III-A)."""

import numpy as np
import pytest

from repro.api import LocalBackend, OpKind, Session
from repro.apps.forecasting import SmartGridAggregator, plaintext_reference
from repro.apps.lookup import EncryptedLookupTable, selection_depth
from repro.errors import ParameterError
from repro.params import mini


@pytest.fixture(scope="module")
def batch_session():
    return Session(mini(t=65537), seed=21)


@pytest.fixture(scope="module")
def lut_session():
    return Session(mini(t=257), seed=22)


class TestForecasting:
    @pytest.fixture(scope="class")
    def aggregator(self, batch_session):
        return SmartGridAggregator(batch_session)

    @pytest.fixture(scope="class")
    def readings(self):
        rng = np.random.default_rng(41)
        return rng.integers(0, 300, size=(6, 24))

    @pytest.fixture(scope="class")
    def meter_cts(self, aggregator, readings):
        return [aggregator.encrypt_readings(r) for r in readings]

    def test_total(self, aggregator, readings, meter_cts):
        total = aggregator.decrypt_slots(aggregator.total(meter_cts), 24)
        assert np.array_equal(total, readings.sum(axis=0) % 65537)

    def test_sum_of_squares(self, aggregator, batch_session, readings,
                            meter_cts):
        total = aggregator.sum_of_squares(meter_cts)
        backend = LocalBackend(batch_session)
        backend.run(batch_session.compile(total))
        result = aggregator.decrypt_slots(total, 24)
        assert np.array_equal(result, (readings ** 2).sum(axis=0) % 65537)
        # x * x lifts x's two coefficient parts once: 2 k_total forward
        # rows per square, half the 4 k_total of two distinct operands.
        lifts = [s for s in backend.last_trace.spans("kernel")
                 if s.name == "mult.lift"]
        rows = sum(t.attrs["rows"] for s in lifts for t in s.walk()
                   if t.kind == "transform")
        assert len(lifts) == len(meter_cts)
        assert rows == len(meter_cts) * 2 * batch_session.params.k_total

    def test_weighted_forecast(self, aggregator, readings, meter_cts):
        weights = [4, 2, 1]
        result = aggregator.decrypt_slots(
            aggregator.weighted_forecast(meter_cts[:3], weights), 24
        )
        reference = plaintext_reference(readings, weights, 65537)
        assert np.array_equal(result, reference["forecast"])

    def test_individual_readings_stay_hidden(self, aggregator, readings,
                                             meter_cts):
        """Ciphertexts of different meters are not comparable."""
        assert not np.array_equal(meter_cts[0].ciphertext.c0.residues,
                                  meter_cts[1].ciphertext.c0.residues)

    def test_grand_total_via_rotations(self, aggregator, readings,
                                       meter_cts):
        """Galois-rotation extension: one number for the whole fleet."""
        total_ct = aggregator.grand_total(meter_cts)
        decoded = aggregator.decrypt_slots(total_ct, 1)
        assert decoded[0] == int(readings.sum()) % 65537

    def test_weight_mismatch_rejected(self, aggregator, meter_cts):
        with pytest.raises(ParameterError):
            aggregator.weighted_forecast(meter_cts[:3], [1, 2])

    def test_empty_meter_list_rejected(self, aggregator):
        with pytest.raises(ParameterError):
            aggregator.total([])


class TestLookup:
    TABLE = [13, 42, 7, 99, 1, 64, 250, 8]

    @pytest.fixture(scope="class")
    def server(self, lut_session):
        return EncryptedLookupTable(lut_session, self.TABLE)

    def test_every_index_retrieves_correctly(self, server):
        for index in range(len(self.TABLE)):
            reply = server.reply_expr(server.encrypt_index(index))
            assert int(server.session.decrypt(reply)[0]) == self.TABLE[index]

    def test_reply_has_noise_budget_left(self, server, lut_session):
        reply = server.reply_expr(server.encrypt_index(2))
        assert lut_session.noise_budget_bits(reply) > 0

    def test_selection_depth_paper_sizing(self):
        """Sec. III-A: a 2^16-entry table fits the depth-4 budget."""
        assert selection_depth(1 << 16) == 4
        assert selection_depth(16) == 2
        assert selection_depth(2) == 0

    def test_rejects_out_of_range_index(self, server):
        with pytest.raises(ParameterError):
            server.encrypt_index(len(self.TABLE))

    def test_rejects_wrong_bit_count(self, server):
        bits = server.encrypt_index(1)
        with pytest.raises(ParameterError):
            server.reply_expr(bits[:-1])

    def test_rejects_oversized_values(self, lut_session):
        with pytest.raises(ParameterError):
            EncryptedLookupTable(lut_session, [1, 300])

    def test_rejects_non_power_of_two_table(self, lut_session):
        with pytest.raises(ParameterError):
            EncryptedLookupTable(lut_session, [1, 2, 3])


class TestSessionFirstConstruction:
    def test_forecasting_rejects_non_batch_session(self):
        with pytest.raises(ParameterError):
            SmartGridAggregator(Session(mini(t=257), seed=60))

    def test_lookup_session_first(self):
        session = Session(mini(t=257), seed=61)
        table = [5, 6, 7, 8]
        server = EncryptedLookupTable(session, table)
        bits = server.encrypt_index(2)
        assert int(session.decrypt(server.reply_expr(bits))[0]) == 7
        # Negated bits are shared across table entries: exactly one
        # NEGATE per index bit in the compiled graph.
        program = server.lookup_program(server.encrypt_index(1))
        assert sum(node.op is OpKind.NEGATE for node in program.nodes) == \
            server.index_bits
