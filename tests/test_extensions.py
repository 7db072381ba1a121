"""Tests for the extension modules: analytic noise model, encrypted
comparator, Fig. 3 rendering, and CLI."""

import hashlib
import itertools

import pytest

from repro import cli
from repro.api import Session
from repro.apps.comparator import BITS, EncryptedComparator
from repro.cli import main as cli_main
from repro.errors import ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.noise import noise_of
from repro.fv.noise_model import NoiseModel
from repro.hw.trace import render_fig3
from repro.params import hpca19, mini
from repro.system.related_work import paper_rows
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

    def test_cli_prints_the_depth_walk(self, capsys):
        """``noise`` prints one row per depth up to the first that fails
        to decrypt, and the supported depth."""
        depth = NoiseModel(hpca19()).supported_depth()
        assert cli_main(["noise"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        walk = rows[rows.index(["depth", "noise", "bound", "decrypts"]) + 1:-1]
        assert [(int(d), status) for d, _, status in walk] == [
            (d, "ok") for d in range(1, depth + 1)] + [(depth + 1, "FAIL")]
        assert rows[-1][-1] == str(depth)

    def test_budget_bits(self):
        model = NoiseModel(hpca19())
        assert model.budget_bits(1) > model.budget_bits(2 ** 50)
        assert model.budget_bits(model.decryption_threshold * 2) == 0.0


@pytest.fixture(scope="module")
def comparator_session():
    return Session(mini(t=2), seed=31)


class TestComparator:
    def test_less_than_exhaustive(self, comparator_session):
        comparator = EncryptedComparator(comparator_session)
        for x, y in itertools.product(range(1 << BITS), repeat=2):
            lt = comparator.decrypt_bit(
                comparator.less_than(comparator.encrypt_value(x),
                                     comparator.encrypt_value(y))
            )
            assert lt == int(x < y), (x, y)

    def test_compare_and_swap_sorts(self, comparator_session):
        comparator = EncryptedComparator(comparator_session)
        for x, y in ((5, 2), (0, 7), (3, 3), (6, 1)):
            low, high = comparator.compare_and_swap(
                comparator.encrypt_value(x), comparator.encrypt_value(y))
            assert (comparator.decrypt_value(low),
                    comparator.decrypt_value(high)) == (min(x, y), max(x, y))

    def test_value_roundtrip(self, comparator_session):
        comparator = EncryptedComparator(comparator_session)
        for value in (0, 5, 7):
            assert comparator.decrypt_value(
                comparator.encrypt_value(value)
            ) == value

    def test_rejects_oversized_value(self, comparator_session):
        comparator = EncryptedComparator(comparator_session)
        with pytest.raises(ParameterError):
            comparator.encrypt_value(1 << BITS)

    def test_rejects_mismatched_widths(self, comparator_session):
        comparator = EncryptedComparator(comparator_session)
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
        "f1d6536474224edbb10e036ebc9ba53974aa340722883e976cdb3ec09334d2aa",
    "table2":
        "5fb2139cd328867b22ccca2e3d3109c0908d6062445dfb934e7d5a9f4f52f17d",
    "table3":
        "99278970f8edd0a304205f51aaa36d0cd4d0558f2d23917060aa93b90629b235",
    "table4":
        "7cc84fbd09b28e5b2e6d9652b406ed088ffab833a8c1ef2adeb633873b846614",
    "table5":
        "96b10d12ad1bb89bbc70ca0f26e88bf3b758244c51737eabf08504d452593c3e",
    "fig3":
        "0d986bd145d0c2913838f2e73f7dd0bb7fd67769bc56c73c9279cd54426c35fb",
    "headline":
        "8038a02e0a4b49aae808f0e4ff835dc0cd6bac2bd4e4f3cef54dc2ed8df96dc7",
}


#: SHA-256 of the stdout of the two serving simulations the CLI prints
#: (``python -m repro serve`` and ``python -m repro cluster --shards 4``):
#: a change to the event loop that is meant to move no simulated number
#: must leave these as they are.
SIMULATION_SHA256 = {
    ("serve",):
        "f42322ebcac54234c37dc26ee880bb25fdc4a4f49563db77b06445f42b64e454",
    ("cluster", "--shards", "4"):
        "342b25b3efce911f61d882665fca2da670b3739efc6c2fd398cd0ad45b2d11b8",
}

#: The PAPER_RECORD artefacts each paper command prints, every row.
PAPER_COMMANDS = {
    "table1": ("Table I",),
    "table2": ("Table II",),
    "table3": ("Table III",),
    "table4": ("Table IV",),
    "table5": ("Table V",),
    "headline": ("headline", "Sec. VI-E", "Table I text"),
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

    @pytest.mark.parametrize("command", sorted(PAPER_COMMANDS))
    def test_paper_command_prints_every_row_of_its_artefacts(self, command,
                                                             capsys):
        """One line per record row: its label, model value, paper value
        and relative error."""
        assert cli_main([command]) == 0
        lines = capsys.readouterr().out.splitlines()
        for artefact in PAPER_COMMANDS[command]:
            for row in paper_rows(artefact):
                (line,) = [text for text in lines
                           if text.startswith(f"{row.label}  ")]
                model, paper, error = line[len(row.label):].split()
                assert float(model.replace(",", "")) == pytest.approx(
                    row.model(), abs=0.5)
                assert float(paper.replace(",", "")) == pytest.approx(
                    row.paper, abs=0.5)
                assert error == f"{row.error():+.1%}"

    def test_docstring_names_every_command_and_what_all_runs(self):
        doc = " ".join(cli.__doc__.split())
        for name in cli.COMMANDS:
            assert f"python -m repro {name}" in doc, name
        *first, last = cli._ALL
        assert (f"``all`` runs {', '.join(first)} and {last}, "
                f"in that order") in doc

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
