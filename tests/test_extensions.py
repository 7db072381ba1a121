"""Tests for the extension modules: analytic noise model, encrypted
comparator, Fig. 3 rendering, and CLI."""

import hashlib
import itertools

import pytest

from repro.api import Session
from repro.apps.comparator import EncryptedComparator, comparator_depth
from repro.cli import main as cli_main
from repro.errors import ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.noise import noise_of
from repro.fv.noise_model import NoiseModel
from repro.hw.trace import render_fig3
from repro.params import hpca19, mini
from scaffolding import toy


class TestNoiseModel:
    def test_fresh_bound_dominates_measured(self, toy_context, toy_keys):
        """The analytic bound must envelope actual fresh noise."""
        model = NoiseModel(toy_context.params)
        params = toy_context.params
        plain = Plaintext.from_list([], params.n, params.t)
        for _ in range(5):
            ct = toy_context.encrypt(plain, toy_keys.public)
            measured = noise_of(toy_context, ct, toy_keys.secret)
            assert measured <= model.fresh_bound()

    def test_add_bound_dominates_measured(self, toy_context, toy_keys):
        model = NoiseModel(toy_context.params)
        params = toy_context.params
        plain = Plaintext.from_list([], params.n, params.t)
        ct1 = toy_context.encrypt(plain, toy_keys.public)
        ct2 = toy_context.encrypt(plain, toy_keys.public)
        n1 = noise_of(toy_context, ct1, toy_keys.secret)
        n2 = noise_of(toy_context, ct2, toy_keys.secret)
        summed = toy_context.add(ct1, ct2)
        assert noise_of(toy_context, summed, toy_keys.secret) \
            <= model.add_bound(n1, n2)

    def test_mult_bound_dominates_measured(self, toy_context, toy_keys):
        model = NoiseModel(toy_context.params)
        evaluator = Evaluator(toy_context)
        plain = Plaintext.from_list([1, 1], toy_context.params.n,
                                    toy_context.params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        fresh = noise_of(toy_context, ct, toy_keys.secret)
        product = evaluator.multiply(ct, ct, toy_keys.relin)
        measured = noise_of(toy_context, product, toy_keys.secret)
        assert measured <= model.mult_relin_bound(fresh, fresh)

    def test_paper_set_supports_depth_four(self):
        """The paper's central sizing claim, predicted analytically."""
        assert NoiseModel(hpca19()).supported_depth() >= 4

    def test_depth_monotone_in_modulus(self):
        assert NoiseModel(hpca19()).supported_depth() \
            >= NoiseModel(toy()).supported_depth()

    def test_depth_prediction_matches_observation(self, mini_context,
                                                  mini_keys):
        """Worst-case analytic depth is a lower bound on observed depth."""
        model = NoiseModel(mini_context.params)
        analytic = model.supported_depth()
        evaluator = Evaluator(mini_context)
        plain = Plaintext.from_list([1], mini_context.params.n,
                                    mini_context.params.t)
        ct = mini_context.encrypt(plain, mini_keys.public)
        reached = 0
        for _ in range(analytic):
            ct = evaluator.multiply(ct, ct, mini_keys.relin)
            decrypted = mini_context.decrypt(ct, mini_keys.secret)
            if decrypted.coeffs[0] != 1 or decrypted.coeffs[1:].any():
                break
            reached += 1
        assert reached >= analytic

    def test_report_renders(self):
        report = NoiseModel(hpca19()).report()
        assert "supported depth" in report

    def test_budget_bits(self):
        model = NoiseModel(hpca19())
        assert model.budget_bits(1) > model.budget_bits(2 ** 50)
        assert model.budget_bits(model.decryption_threshold * 2) == 0.0


@pytest.fixture(scope="module")
def comparator_session():
    return Session(mini(t=2), seed=31)


class TestComparator:
    def test_less_than_exhaustive_2bit(self, comparator_session):
        comparator = EncryptedComparator(comparator_session, bits=2)
        for x, y in itertools.product(range(4), repeat=2):
            lt = comparator.decrypt_bit(
                comparator.less_than(comparator.encrypt_value(x),
                                     comparator.encrypt_value(y))
            )
            assert lt == int(x < y), (x, y)

    def test_compare_and_swap_sorts(self, comparator_session):
        comparator = EncryptedComparator(comparator_session, bits=3)
        for x, y in ((5, 2), (0, 7), (3, 3), (6, 1)):
            low, high = comparator.compare_and_swap(
                comparator.encrypt_value(x), comparator.encrypt_value(y))
            assert (comparator.decrypt_value(low),
                    comparator.decrypt_value(high)) == (min(x, y), max(x, y))

    def test_value_roundtrip(self, comparator_session):
        comparator = EncryptedComparator(comparator_session, bits=4)
        for value in (0, 7, 15):
            assert comparator.decrypt_value(
                comparator.encrypt_value(value)
            ) == value

    def test_depth_formula(self):
        assert comparator_depth(1) == 1
        assert comparator_depth(3) == 3

    def test_rejects_oversized_value(self, comparator_session):
        comparator = EncryptedComparator(comparator_session, bits=2)
        with pytest.raises(ParameterError):
            comparator.encrypt_value(4)

    def test_rejects_mismatched_widths(self, comparator_session):
        comparator = EncryptedComparator(comparator_session, bits=3)
        a = comparator.encrypt_value(1)
        with pytest.raises(ParameterError):
            comparator.less_than(a[:2], a)


class TestRenderFig3:
    def test_render_fig3_contains_inverted_order(self):
        figure = render_fig3()
        assert "Iteration m = 2 " in figure
        assert "1536, 512, 1537, 513" in figure
        assert "0, 1024, 1, 1025" in figure


#: SHA-256 of the stdout of ``python -m repro <command>``: the paper's
#: tables, Fig. 3 and the headline as this model prints them, byte for
#: byte. A change that is meant to move no published number must leave
#: these as they are.
ARTEFACT_SHA256 = {
    "table1":
        "faf4aa9a66ac54fb8d34883305f713248d0d2941524f5269cefc92d7d950accd",
    "table2":
        "6799d9c55b9c7a403a705d9ce143e827cc603d2c9f4a696bc069cf2bd319d424",
    "table3":
        "2bf57489b1cbb5d2e1f0598257f0a59d8ce1aca9caa25b162e83ae78b4f4d387",
    "table4":
        "92931e01c34ed7e48307520e3e095f2beaab7d4f398102fda1880eac62bec066",
    "table5":
        "19895ab1179d0bbec55bd82634746103040a2a6bd408edc91e71a17374279fcf",
    "fig3":
        "0d986bd145d0c2913838f2e73f7dd0bb7fd67769bc56c73c9279cd54426c35fb",
    "headline":
        "0a42c61e9951702a96f65c8965b51e3baff72ca5d958da52feb8e03691a05218",
}


#: SHA-256 of the stdout of the two serving simulations the CLI prints
#: (``python -m repro serve`` and ``python -m repro cluster --shards 4``):
#: a change to the event loop that is meant to move no simulated number
#: must leave these as they are.
SIMULATION_SHA256 = {
    ("serve",):
        "65355cb1a81bb737a8d12cdd14d06db50a00777b131a49e95c78e4f938d2b062",
    ("cluster", "--shards", "4"):
        "24466909f4b53de3206ff6ea8ee303b1db1e8dfcd6da84a406595ec772d17548",
}


class TestCli:
    @pytest.mark.parametrize("command", ["noise", "list"])
    def test_commands_run(self, command, capsys):
        assert cli_main([command]) == 0
        output = capsys.readouterr().out
        assert len(output) > 20

    @pytest.mark.parametrize("command", sorted(ARTEFACT_SHA256))
    def test_paper_artefacts_byte_identical(self, command, capsys):
        assert cli_main([command]) == 0
        output = capsys.readouterr().out
        digest = hashlib.sha256(output.encode()).hexdigest()
        assert digest == ARTEFACT_SHA256[command]

    @pytest.mark.parametrize("argv", sorted(SIMULATION_SHA256),
                             ids=" ".join)
    def test_simulations_byte_identical(self, argv, capsys):
        assert cli_main(list(argv)) == 0
        output = capsys.readouterr().out
        digest = hashlib.sha256(output.encode()).hexdigest()
        assert digest == SIMULATION_SHA256[argv]

    def test_program_command(self, capsys):
        """The facade demo: one graph, both executors, latency table."""
        assert cli_main(["program", "--shards", "2",
                         "--requests", "40"]) == 0
        output = capsys.readouterr().out
        assert "LocalBackend" in output and "OK" in output
        assert "SimulatedBackend" in output and "p99" in output

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["nope"])
