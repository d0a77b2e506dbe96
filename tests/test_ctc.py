"""CTC loss against closed-form values and a brute-force path oracle."""

import itertools

import numpy as np
import pytest

from sslasr.engine import Tape, Tensor, backward
from sslasr.gradcheck import finite_diff_gradcheck
from sslasr.ctc import (
    CTCHead,
    ctc_loss_batch,
    edit_distance,
    error_rate,
    extended_labels,
    greedy_decode,
    min_input_length,
)


def collapse(path, blank=0):
    out = []
    prev = None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return out


def ctc_nll(logits: np.ndarray, target) -> float:
    """-log P(target) of one (T, V) utterance, scored as a batch of one:
    the loss times the target length it is divided by."""
    t = logits.shape[0]
    return len(target) * float(ctc_loss_batch(Tensor(logits[None]), [t], [list(target)]).data)


def brute_force_nll(logits: np.ndarray, target, blank=0):
    """Enumerate every alignment path; -log of the total probability."""
    t, v = logits.shape
    logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                           .sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
    target = list(target)
    total = 0.0
    for path in itertools.product(range(v), repeat=t):
        if collapse(path, blank) == target:
            total += np.exp(sum(logp[i, c] for i, c in enumerate(path)))
    return -np.log(total) if total > 0 else np.inf


class TestClosedForm:
    def test_one_frame_uniform(self):
        # equal logits over {blank, token}: P(token) = 1/2
        assert ctc_nll(np.zeros((1, 2)), [1]) == pytest.approx(-np.log(0.5), rel=1e-12)

    def test_two_frames_uniform(self):
        # paths for 'a' in 2 frames: aa, -a, a-  ->  3/4 total probability
        assert ctc_nll(np.zeros((2, 2)), [1]) == pytest.approx(-np.log(0.75), rel=1e-12)

    def test_normalize_divides_by_target_length(self):
        # equal logits over {blank, 1, 2}: '12' in 2 frames has one path, P = 1/9
        loss = ctc_loss_batch(Tensor(np.zeros((1, 2, 3))), [2], [[1, 2]])
        assert float(loss.data) == pytest.approx(np.log(9.0) / 2, rel=1e-12)


class TestBruteForceOracle:
    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(7)
        checked = 0
        for v in (2, 3):
            tokens = range(1, v)
            for t in (1, 2, 3, 4):
                logits_np = rng.normal(size=(t, v))
                for n_tok in (1, 2):
                    for target in itertools.product(tokens, repeat=n_tok):
                        if min_input_length(target) > t:
                            continue
                        want = brute_force_nll(logits_np, target)
                        got = ctc_nll(logits_np.copy(), target)
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), \
                            f"T={t} V={v} target={target}"
                        checked += 1
        assert checked >= 20

    def test_total_probability_is_one(self):
        # all collapsed outputs plus the empty (all-blank) path partition
        # the path space, so their probabilities must sum to exactly 1
        rng = np.random.default_rng(8)
        for t, v in [(1, 3), (2, 3), (3, 3), (3, 2)]:
            logits_np = rng.normal(size=(t, v))
            logp = logits_np - np.log(np.exp(logits_np).sum(-1, keepdims=True))
            total = np.exp(logp[:, 0].sum())  # empty output: every frame blank
            for n_tok in range(1, t + 1):
                for target in itertools.product(range(1, v), repeat=n_tok):
                    if min_input_length(target) > t:
                        continue
                    loss = ctc_nll(logits_np.copy(), target)
                    total += np.exp(-loss)
            assert total == pytest.approx(1.0, abs=1e-9), f"T={t} V={v}"


class TestFeasibility:
    def test_min_input_length(self):
        assert min_input_length([1]) == 1
        assert min_input_length([1, 2]) == 2
        assert min_input_length([1, 1]) == 3
        assert min_input_length([1, 1, 1]) == 5
        assert min_input_length([1, 2, 2, 3]) == 5

    def test_extended_labels(self):
        assert extended_labels([1, 2]) == [0, 1, 0, 2, 0]
        assert extended_labels([]) == [0]

    def test_infeasible_utterance_raises_naming_it(self):
        logits = Tensor(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match=r"^utterance 1: CTC target of 2 tokens needs 3 frames, has 2$"):
            ctc_loss_batch(logits, [2, 2], [[1], [1, 1]])

    def test_batch_averages_length_normalized_losses(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(2, 4, 3)))
        out_lengths = [4, 3]
        targets = [[1, 2], [1, 1]]  # the second has exactly the 3 frames it needs
        got = ctc_loss_batch(logits, out_lengths, targets)
        want = (ctc_nll(logits.data[0], [1, 2]) / 2 + ctc_nll(logits.data[1, :3], [1, 1]) / 2) / 2
        assert got.data == pytest.approx(want, rel=1e-12)

    def test_all_infeasible_batch_raises(self):
        logits = Tensor(np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="utterance 0: CTC target of 2 tokens needs 3 frames, has 1"):
            ctc_loss_batch(logits, [1], [[1, 1]])

    def test_invalid_targets_rejected(self):
        logits = Tensor(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="utterance 1: .*non-blank vocabulary"):
            ctc_loss_batch(logits, [3, 3], [[1], [0]])
        with pytest.raises(ValueError, match="utterance 0: .*non-blank vocabulary"):
            ctc_loss_batch(logits, [3, 3], [[5], [1]])
        with pytest.raises(ValueError, match="utterance 1: empty CTC target"):
            ctc_loss_batch(logits, [3, 3], [[1], []])


class TestInputChecks:
    def test_negative_out_length_rejected(self):
        # unchecked, utterance 0 would be scored on 3 of its 4 frames
        logits = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="utterance 0: out_length -1 outside"):
            ctc_loss_batch(logits, [-1, 4], [[1], [2]])

    def test_out_length_above_frame_count_rejected(self):
        logits = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="utterance 1: out_length 9 outside"):
            ctc_loss_batch(logits, [4, 9], [[1], [2]])

    def test_too_few_targets_rejected(self):
        logits = Tensor(np.zeros((3, 4, 3)))
        with pytest.raises(ValueError, match="2 CTC targets for a batch of 3: utterance 2"):
            ctc_loss_batch(logits, [4, 4, 4], [[1], [2]])

    def test_extra_targets_rejected(self):
        logits = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="3 CTC targets for a batch of 2: utterance 2"):
            ctc_loss_batch(logits, [4, 4], [[1], [2], [1]])

    def test_out_length_count_must_match_batch(self):
        logits = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="1 CTC out_lengths for a batch of 2: utterance 1"):
            ctc_loss_batch(logits, [4], [[1], [2]])


class TestFusedGradient:
    """The fused op's closed-form gradient against central differences."""

    LENGTHS = [6, 4, 3]
    TARGETS = [[1, 1, 2], [3, 2], [2, 2]]  # a repeat (no skip); [2, 2] takes all 3 of its frames

    def loss(self, x):
        return ctc_loss_batch(x, self.LENGTHS, self.TARGETS)

    def test_matches_central_differences(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 6, 4)))
        assert finite_diff_gradcheck(self.loss, [x]) < 1e-6

    def test_padding_rows_are_exactly_zero(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 6, 4)), requires_grad=True)
        with Tape() as tape:
            backward(self.loss(x), tape)
        assert np.all(x.grad[1, 4:] == 0.0)  # padded frames
        assert np.all(x.grad[2, 3:] == 0.0)
        assert np.all(np.abs(x.grad[0]).sum(axis=-1) > 0)
        assert np.all(np.abs(x.grad[1, :4]).sum(axis=-1) > 0)
        assert np.all(np.abs(x.grad[2, :3]).sum(axis=-1) > 0)

    def test_one_tape_node_per_call(self):
        x = Tensor(np.random.default_rng(6).normal(size=(3, 6, 4)), requires_grad=True)
        with Tape() as tape:
            self.loss(x)
        assert [n.op for n in tape.nodes] == ["ctc_loss"]

    def test_float32_logits_give_a_float32_loss(self):
        x = Tensor(np.random.default_rng(7).normal(size=(3, 6, 4)).astype(np.float32))
        assert self.loss(x).dtype == np.float32


class TestBatchAggregation:
    def test_mean_of_per_utterance_losses(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(2, 5, 4)))
        out_lengths = [5, 3]
        targets = [[1, 2, 3], [2]]
        got = ctc_loss_batch(logits, out_lengths, targets)
        singles = [ctc_nll(logits.data[0, :5], [1, 2, 3]) / 3, ctc_nll(logits.data[1, :3], [2])]
        assert got.data == pytest.approx(np.mean(singles), rel=1e-12)

    def test_head_output_width(self):
        head = CTCHead(np.random.default_rng(0), d_model=8, vocab_size=5)
        hidden = Tensor(np.zeros((2, 4, 8), dtype=np.float32))
        assert head(hidden).shape == (2, 4, 6)  # vocab + blank


class TestDecodingAndMetrics:
    def test_greedy_collapse_and_blank_removal(self):
        logp = np.full((6, 3), -10.0)
        best = [0, 1, 1, 0, 2, 2]
        for t, c in enumerate(best):
            logp[t, c] = 0.0
        assert greedy_decode(logp) == [1, 2]

    def test_greedy_tie_takes_lowest_index(self):
        logp = np.zeros((3, 4))  # every class tied -> argmax picks 0 = blank
        assert greedy_decode(logp) == []

    def test_greedy_repeated_token_needs_blank_gap(self):
        logp = np.full((3, 2), -10.0)
        logp[:, 1] = 0.0  # 1 1 1 collapses to a single 1
        assert greedy_decode(logp) == [1]

    def test_edit_distance(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0
        assert edit_distance([1, 2, 3], [1, 3]) == 1  # deletion
        assert edit_distance([1, 2], [1, 2, 3]) == 1  # insertion
        assert edit_distance([1, 2], [1, 4]) == 1  # substitution
        assert edit_distance([], [1, 2]) == 2
        assert edit_distance([3, 1, 2], [1, 2, 3]) == 2

    def test_error_rate_pools_over_corpus(self):
        refs = [[1, 2, 3], [4]]
        hyps = [[1, 2], [4]]
        assert error_rate(refs, hyps) == pytest.approx(1 / 4)
        assert error_rate([[], []], [[], []]) == 0.0
        assert error_rate([[]], [[1]]) == np.inf
        with pytest.raises(ValueError, match="pair up"):
            error_rate([[1]], [])
