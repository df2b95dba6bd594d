"""Equivalence of the batched kernels with the scalar reference layer.

Property-style tests: on random string batches the batched kernels must
agree *exactly* (not statistically) with the scalar implementations in
``repro.core`` / ``repro.delta`` — those are the oracles the paper's
correctness argument was validated against.
"""

import random

import numpy as np
import pytest

from repro.core.catalan import catalan_slots, uniquely_honest_catalan_slots
from repro.core.distributions import (
    SlotProbabilities,
    bernoulli_condition,
    semi_synchronous_condition,
)
from repro.core.margin import margin_sequence, margin_step
from repro.core.reach import reach_sequence, rho
from repro.core.walks import (
    reflected_walk,
    sample_reflected_walk_height,
    sample_reflected_walk_heights,
    stationary_reach_ratio,
)
from repro.delta.reduction import (
    MODE_EMPTY_RUN,
    MODE_QUIET_WINDOW,
    reduce_string,
    reduce_strings,
)
from repro.engine import kernels
from tests.conftest import random_strings


def encode_batch(words):
    return kernels.encode_words(words)


class TestEncoding:
    def test_roundtrip(self):
        words = random_strings("hHA.", 30, 0, 40, seed=1)
        matrix, lengths = kernels.encode_words(words)
        assert kernels.decode_matrix(matrix, lengths) == words

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            kernels.encode_word("hHx")

    def test_unknown_symbols_name_the_offenders(self):
        # Unknown ASCII must raise, not flow through the 255 sentinel.
        with pytest.raises(ValueError, match=r"'x'"):
            kernels.encode_word("hHx")
        with pytest.raises(ValueError, match=r"'z'"):
            kernels.encode_words(["hH", "Az"])

    def test_non_ascii_raises_value_error(self):
        # Non-ASCII input must surface as the same ValueError contract,
        # never as a raw UnicodeEncodeError from the codec.
        with pytest.raises(ValueError, match="é"):
            kernels.encode_word("héllo")
        with pytest.raises(ValueError):
            kernels.encode_words(["h", "h☃"])

    def test_empty_word_encodes_to_empty(self):
        assert kernels.encode_word("").shape == (0,)

    def test_padding_is_empty(self):
        matrix, lengths = kernels.encode_words(["hA", "h"])
        assert matrix[1, 1] == kernels.CODE_EMPTY


class TestReachEquivalence:
    def test_matches_reach_sequence(self):
        words = random_strings("hHA", 120, 1, 60, seed=2)
        matrix, lengths = kernels.encode_words(words)
        trajectories = kernels.reach_trajectories(matrix)
        for i, word in enumerate(words):
            expected = reach_sequence(word)
            assert trajectories[i, : len(word) + 1].tolist() == expected

    def test_final_reaches_match_rho(self):
        words = random_strings("hHA", 60, 1, 50, seed=3)
        matrix, lengths = kernels.encode_words(words)
        # padding is a no-op, so the last column is each row's rho
        finals = kernels.final_reaches(matrix)
        for i, word in enumerate(words):
            assert finals[i] == rho(word)

    def test_initial_reach_offsets(self):
        # a reflected walk started at r0 must match the scalar recurrence
        # seeded with r0 (consume the headroom before reflecting)
        words = random_strings("hHA", 40, 1, 30, seed=4)
        matrix, _ = kernels.encode_words(words)
        starts = np.arange(len(words), dtype=np.int64) % 4
        trajectories = kernels.reach_trajectories(matrix, starts)
        for i, word in enumerate(words):
            value = int(starts[i])
            for t, symbol in enumerate(word, start=1):
                if symbol == "A":
                    value += 1
                else:
                    value = max(value - 1, 0)
                assert trajectories[i, t] == value

    def test_empty_symbol_is_noop(self):
        matrix, _ = kernels.encode_words(["A.h", "Ah"])
        a = kernels.reach_trajectories(matrix)
        assert a[0].tolist() == [0, 1, 1, 0]


class TestMarginEquivalence:
    def test_matches_margin_sequence(self):
        words = random_strings("hHA", 80, 1, 50, seed=5)
        rng = random.Random(55)
        for word in words:
            prefix_length = rng.randint(0, len(word))
            matrix, _ = kernels.encode_words([word])
            trajectory = kernels.margin_trajectories(matrix, prefix_length)[0]
            expected = margin_sequence(word, prefix_length)
            assert trajectory[prefix_length:].tolist() == expected

    def test_batched_step_matches_scalar_step(self):
        rng = random.Random(66)
        rhos, mus, symbols = [], [], []
        expected = []
        for _ in range(500):
            r = rng.randint(0, 6)
            m = rng.randint(-5, r)
            s = rng.choice("hHA")
            rhos.append(r)
            mus.append(m)
            symbols.append(s)
            expected.append(margin_step(r, m, s))
        codes = kernels.encode_word("".join(symbols))
        new_rho, new_mu = kernels.batched_margin_step(
            np.array(rhos), np.array(mus), codes
        )
        assert list(zip(new_rho.tolist(), new_mu.tolist())) == expected

    def test_joint_final_states_match_trajectory_tail(self):
        words = random_strings("hHA", 40, 2, 40, seed=6)
        matrix, _ = kernels.encode_words(words)
        starts = np.array([len(w) // 2 for w in words], dtype=np.int64)
        trajectories = kernels.margin_trajectories(matrix, starts)
        _rho, mu = kernels.joint_final_states(matrix, starts)
        assert (trajectories[:, -1] == mu).all()

    def test_initial_reach_seeds_margin(self):
        matrix, _ = kernels.encode_words(["hh"])
        initial = np.array([3], dtype=np.int64)
        trajectory = kernels.margin_trajectories(
            matrix, 0, initial_reaches=initial
        )[0]
        assert trajectory.tolist() == [3, 2, 1]


def column_loop_reference(symbols, prefix_lengths, initial_reaches):
    """Margin trajectories by a per-column loop of ``batched_margin_step``."""
    trials, length = symbols.shape
    starts = np.broadcast_to(np.asarray(prefix_lengths), (trials,))
    rho = (
        np.zeros(trials, dtype=np.int64)
        if initial_reaches is None
        else initial_reaches.copy()
    )
    mu = rho.copy()
    out = np.empty((trials, length + 1), dtype=np.int64)
    out[:, 0] = mu
    for t in range(length):
        rho, new_mu = kernels.batched_margin_step(rho, mu, symbols[:, t])
        mu = np.where(t < starts, rho, new_mu)
        out[:, t + 1] = mu
    return rho, out


class TestMarginScanBitIdentity:
    """The fused scan against the per-column step loop it replaced."""

    def check(self, symbols, prefix_lengths, initial_reaches):
        before = None if initial_reaches is None else initial_reaches.copy()
        rho, trajectory = column_loop_reference(
            symbols, prefix_lengths, initial_reaches
        )
        final_rho, final_mu = kernels.joint_final_states(
            symbols, prefix_lengths, initial_reaches
        )
        scanned = kernels.margin_trajectories(
            symbols, prefix_lengths, initial_reaches
        )
        assert final_rho.dtype == final_mu.dtype == scanned.dtype == np.int64
        assert np.array_equal(final_rho, rho)
        assert np.array_equal(final_mu, trajectory[:, -1])
        assert np.array_equal(scanned, trajectory)
        if initial_reaches is not None:  # the in-place scan copies its seed
            assert np.array_equal(initial_reaches, before)

    def test_random_ragged_batches(self):
        rng = np.random.default_rng(12)
        for case in range(150):
            trials = int(rng.integers(1, 40))
            length = int(rng.integers(1, 30))
            words = random_strings("hHA", trials, 1, length, seed=case)
            symbols, lengths = kernels.encode_words(words)  # ⊥-padded
            width = symbols.shape[1]
            prefix_lengths = (
                rng.integers(0, width + 1, size=trials)
                if case % 2
                else int(rng.integers(0, width + 1))
            )
            initial = (
                None
                if case % 3 == 0
                else rng.integers(0, 10**12, size=trials)
                if case % 3 == 1
                else rng.integers(0, 8, size=trials)
            )
            self.check(symbols, prefix_lengths, initial)

    @pytest.mark.parametrize("trials,length", [(0, 5), (4, 0), (0, 0), (1, 7)])
    def test_edge_shapes(self, trials, length):
        rng = np.random.default_rng(trials * 10 + length)
        symbols = rng.integers(0, 4, size=(trials, length)).astype(np.uint8)
        for prefix_lengths in (0, length, np.full(trials, length)):
            for initial in (None, rng.integers(0, 5, size=trials)):
                self.check(symbols, prefix_lengths, initial)

    def test_scan_continues_from_explicit_state(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 3, size=(64, 24)).astype(np.uint8)
        initial = rng.integers(0, 6, size=64)
        rho, mu = kernels.joint_final_states(symbols[:, :10], 0, initial)
        rho, mu = kernels._margin_scan(symbols[:, 10:], rho, mu)
        whole = kernels.joint_final_states(symbols, 0, initial)
        assert np.array_equal(rho, whole[0])
        assert np.array_equal(mu, whole[1])


class TestCatalanEquivalence:
    def test_matches_catalan_slots(self):
        words = random_strings("hHA", 120, 1, 60, seed=7)
        matrix, lengths = kernels.encode_words(words)
        mask = kernels.catalan_slot_mask(matrix)
        for i, word in enumerate(words):
            slots = (np.nonzero(mask[i, : len(word)])[0] + 1).tolist()
            assert slots == catalan_slots(word)

    def test_semi_synchronous_strings(self):
        words = random_strings("hHA.", 60, 1, 50, seed=8)
        matrix, lengths = kernels.encode_words(words)
        mask = kernels.catalan_slot_mask(matrix)
        for i, word in enumerate(words):
            slots = (np.nonzero(mask[i, : len(word)])[0] + 1).tolist()
            assert slots == catalan_slots(word)

    def test_uniquely_honest_mask(self):
        words = random_strings("hHA", 60, 1, 50, seed=9)
        matrix, _ = kernels.encode_words(words)
        mask = kernels.uniquely_honest_catalan_mask(matrix)
        for i, word in enumerate(words):
            slots = (np.nonzero(mask[i, : len(word)])[0] + 1).tolist()
            assert slots == uniquely_honest_catalan_slots(word)

    def test_consecutive_mask(self):
        words = random_strings("hHA", 60, 2, 50, seed=10)
        matrix, _ = kernels.encode_words(words)
        pairs = kernels.consecutive_catalan_mask(matrix)
        for i, word in enumerate(words):
            slots = set(catalan_slots(word))
            expected = sorted(s for s in slots if s + 1 in slots)
            got = (np.nonzero(pairs[i, : len(word) - 1])[0] + 1).tolist()
            assert got == expected


class TestReductionEquivalence:
    def test_mode_constants_mirror_the_canonical_ones(self):
        # kernels can't import these from delta.reduction (package cycle);
        # the literals must stay equal
        assert kernels.MODE_EMPTY_RUN == MODE_EMPTY_RUN
        assert kernels.MODE_QUIET_WINDOW == MODE_QUIET_WINDOW

    @pytest.mark.parametrize("mode", [MODE_EMPTY_RUN, MODE_QUIET_WINDOW])
    @pytest.mark.parametrize("delta", [0, 1, 2, 5])
    def test_matches_reduce_string(self, mode, delta):
        words = random_strings("hHA.", 80, 1, 50, seed=11)
        assert reduce_strings(words, delta, mode) == [
            reduce_string(word, delta, mode) for word in words
        ]

    def test_reduced_slot_columns_match_bijection(self):
        from repro.delta.reduction import slot_bijection

        words = random_strings("hHA.", 40, 5, 40, seed=12)
        matrix, lengths = kernels.encode_words(words)
        target = 3
        columns = kernels.reduced_slot_columns(matrix, target, lengths)
        for i, word in enumerate(words):
            if word[target - 1] == ".":
                assert columns[i] == -1
            else:
                assert columns[i] == slot_bijection(word, 0)[target] - 1

    def test_empty_batch(self):
        assert reduce_strings([], 2) == []


class TestSamplingEquivalence:
    def test_threshold_discipline(self):
        probabilities = semi_synchronous_condition(0.6, 0.1, 0.3)
        generator = np.random.default_rng(13)
        uniforms = generator.random((50, 30))
        codes = kernels.symbols_from_uniforms(probabilities, uniforms)
        t_h, t_bigh, t_adv = kernels.symbol_thresholds(probabilities)
        for i in range(50):
            for j in range(30):
                u = uniforms[i, j]
                if u < t_h:
                    expected = kernels.CODE_UNIQUE
                elif u < t_bigh:
                    expected = kernels.CODE_MULTI
                elif u < t_adv:
                    expected = kernels.CODE_ADVERSARIAL
                else:
                    expected = kernels.CODE_EMPTY
                assert codes[i, j] == expected

    def test_martingale_damping_never_exceeds_iid_adversarial_mass(self):
        probabilities = bernoulli_condition(0.2, 0.3)
        generator = np.random.default_rng(14)
        codes = kernels.sample_martingale_matrix(
            probabilities, 2000, 50, generator, correlation=0.0
        )
        # correlation 0: an adversarial slot is never followed by another
        adv = codes == kernels.CODE_ADVERSARIAL
        assert not (adv[:, :-1] & adv[:, 1:]).any()

    def test_initial_reach_law(self):
        epsilon = 0.3
        beta = stationary_reach_ratio(epsilon)
        generator = np.random.default_rng(15)
        draws = kernels.sample_initial_reaches(epsilon, 200_000, generator)
        for k in (0, 1, 3):
            expected = (1 - beta) * beta**k
            observed = (draws == k).mean()
            assert abs(observed - expected) < 0.01

    def test_reflected_walk_heights_distribution(self):
        # batched closed-form heights vs the scalar per-step sampler
        epsilon, steps = 0.3, 40
        generator = np.random.default_rng(16)
        batched = sample_reflected_walk_heights(epsilon, steps, 20_000, generator)
        rng = random.Random(17)
        scalar = [
            sample_reflected_walk_height(epsilon, steps, rng)
            for _ in range(20_000)
        ]
        assert abs(batched.mean() - np.mean(scalar)) < 0.1

    def test_reflected_walk_closed_form_identity(self):
        # the closed form used by the kernel equals the library's
        # reflected_walk on the induced characteristic string
        generator = np.random.default_rng(18)
        uniforms = generator.random((1, 60))
        p = (1.0 - 0.3) / 2.0
        word = "".join("A" if u < p else "h" for u in uniforms[0])
        heights = kernels.reflected_walk_heights_from_uniforms(0.3, uniforms)
        assert heights[0] == reflected_walk(word)[-1]
