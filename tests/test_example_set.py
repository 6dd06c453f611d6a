"""The dense ExampleSet against the per-example stacking it replaced.

The `old_*` functions below are the list-of-Example implementations that
regrouped and stacked every minibatch, kept here as oracles: the set must give
the same groups and the same bits, and the split alpha/theta minimax step must
equal the combined step that computed both halves on every call.
"""

import copy
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slatesim import nets, training
from slatesim.choice import ChoiceConfig, PROB_FLOOR, Regularizer, logsumexp, softmax
from slatesim.data import ClickRecord, Trajectory, synth_catalog
from slatesim.nets import init_scorer_net, named_tensors
from slatesim.training import (
    Example,
    ExampleSet,
    TrainConfig,
    UserModel,
    _theta_forward,
    build_examples,
    heldout_loglik,
    induced_softmax_alpha,
    minimax_alpha_grad,
    minimax_objective,
    minimax_value_grads,
    nll_loss,
    nll_value_grad,
    precision_at_k,
)

from pools import push_columns

D, M = 3, 2


# ---------------------------------------------------------------------------
# oracles: the per-example implementations


def old_build_examples(catalog, trajectories, m):
    examples = []
    for traj in trajectories:
        hist = np.zeros((catalog.d, m))
        for rec in traj.records:
            feats = np.vstack([catalog.feature_matrix(rec.displayed), np.zeros((1, catalog.d))])
            slot = rec.displayed.index(rec.chosen) if rec.clicked else len(rec.displayed)
            examples.append(Example(hist=hist.copy(), disp=feats,
                                    chosen=slot, n_items=len(rec.displayed)))
            if rec.clicked:
                push_columns(hist, catalog.features(rec.chosen))
    return examples


def old_batch_groups(examples):
    groups = {}
    for ex in examples:
        groups.setdefault(ex.disp.shape[0], []).append(ex)
    out = []
    for slots in sorted(groups):
        exs = groups[slots]
        out.append((
            len(exs),
            np.stack([e.hist for e in exs]),
            np.stack([e.disp for e in exs]),
            np.array([e.chosen for e in exs], dtype=int),
        ))
    return out


def old_weighted(parts):
    # every group's gradients scaled by its share, then added in group order
    total_n = sum(n for n, _, _ in parts)
    value = 0.0
    grads = None
    for n, v, g in parts:
        value += v * n / total_n
        g = {name: t * (n / total_n) for name, t in g.items()}
        if grads is None:
            grads = g
        else:
            for name, t in g.items():
                grads[name] = grads[name] + t if name in grads else t.copy()
    return value, grads


def old_nll_value_grad(theta, examples, eta):
    return old_weighted([(n,) + nets.nll_value_and_grad(theta, nets.scorer_batch(theta, F, feats), chosen, eta)
                         for n, F, feats, chosen in old_batch_groups(examples)])


def old_nll_loss(theta, examples, eta):
    value = 0.0
    for n, F, feats, chosen in old_batch_groups(examples):
        logits = eta * nets.scorer_batch(theta, F, feats).scores
        value += float(np.sum(logsumexp(logits) - logits[np.arange(n), chosen]))
    return value / len(examples)


def old_minimax_objective(theta, alpha, examples, eta, regularizer, exact_inner=False):
    total = 0.0
    for n, F, feats, chosen in old_batch_groups(examples):
        r = nets.scorer_batch(theta, F, feats).scores
        if exact_inner:
            inner = regularizer.inner_max(r, eta)
        else:
            phi = softmax(nets.scorer_batch(alpha, F, feats).scores)
            inner = np.sum(phi * r, axis=1) - regularizer.omega(phi) / eta
        total += float(np.sum(inner - r[np.arange(n), chosen]))
    return total / len(examples)


def old_reward_scores(theta, examples, transform=None):
    order, groups = [], {}
    for i, ex in enumerate(examples):
        groups.setdefault(ex.disp.shape[0], []).append(i)
    for slots in sorted(groups):
        idxs = groups[slots]
        scores = nets.scorer_batch(theta, np.stack([examples[i].hist for i in idxs]),
                                   np.stack([examples[i].disp for i in idxs])).scores
        if transform is not None:
            scores = transform(scores)
        order.extend(zip(idxs, scores))
    order.sort(key=lambda t: t[0])
    return [s for _, s in order]


def old_precision_at_k(model, examples, k_eval):
    clicks = [ex for ex in examples if ex.clicked]
    hits = 0
    for ex, row in zip(clicks, old_reward_scores(model.theta, clicks)):
        top = np.argsort(-row[: ex.n_items], kind="stable")[:k_eval]
        hits += int(ex.chosen in top)
    return hits / len(clicks)


def old_heldout_loglik(model, examples):
    reg, eta = model.config.regularizer, model.config.eta
    probs = old_reward_scores(model.theta, examples, lambda r: reg.probs(r, eta))
    p = np.array([row[ex.chosen] for ex, row in zip(examples, probs)])
    return float(np.mean(np.log(np.maximum(p, PROB_FLOOR))))


def old_minimax_value_grads(theta, alpha, examples, config):
    """The combined step: both halves computed on every call."""
    theta_parts, alpha_parts = [], []
    for n, F, feats, chosen in old_batch_groups(examples):
        r = nets.scorer_batch(theta, F, feats).scores
        va, ga = nets.minimax_behavior_value_and_grad(
            alpha, nets.scorer_batch(alpha, F, feats), r, config.eta, config.regularizer)
        alpha_parts.append((n, va, ga))
        phi = softmax(nets.scorer_batch(alpha, F, feats).scores)
        vt, gt = nets.minimax_reward_value_and_grad(
            theta, nets.scorer_batch(theta, F, feats), chosen, phi, config.eta, config.regularizer)
        theta_parts.append((n, vt, gt))
    theta_value, theta_grads = old_weighted(theta_parts)
    return theta_value, theta_grads, old_weighted(alpha_parts)[1]


# ---------------------------------------------------------------------------
# generated inputs


def ragged_examples(seed, slot_counts):
    """One Example per entry of `slot_counts`, in that (shuffled) order. Each display
    is its items, then the all-zero non-click slot, which some records choose."""
    rng = np.random.default_rng(seed)
    out = []
    for slots in slot_counts:
        disp = rng.standard_normal((slots, D))
        disp[-1] = 0.0
        out.append(Example(hist=rng.standard_normal((D, M)), disp=disp,
                           chosen=int(rng.integers(0, slots)), n_items=slots - 1))
    return out


def nets_pair(seed):
    rng = np.random.default_rng(seed)
    theta = init_scorer_net(D, M, 2, 5, rng)
    alpha = init_scorer_net(D, M, 2, 5, rng)
    return theta, alpha


def same_grads(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


ragged = st.tuples(st.integers(0, 2**32 - 1),
                   st.lists(st.integers(2, 7), min_size=1, max_size=40))


class TestExampleSetEquivalence:
    @given(case=ragged, picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_take_groups_equal_stacked_minibatch(self, case, picks):
        examples = ragged_examples(*case)
        idx = np.array([p % len(examples) for p in picks])
        batch = ExampleSet.from_examples(examples).take(idx)
        blocks = list(batch.blocks())
        oracle = old_batch_groups([examples[i] for i in idx])
        assert len(blocks) == len(oracle)
        for (pos, F, feats, chosen), (n, oF, ofeats, ochosen) in zip(blocks, oracle):
            assert len(pos) == n
            assert F.dtype == oF.dtype and np.array_equal(F, oF)
            assert feats.dtype == ofeats.dtype and np.array_equal(feats, ofeats)
            assert chosen.dtype == ochosen.dtype and np.array_equal(chosen, ochosen)

    @given(case=ragged, seed=st.integers(0, 1000), eta=st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_losses_same_bits_on_list_and_set(self, case, seed, eta):
        examples = ragged_examples(*case)
        example_set = ExampleSet.from_examples(examples)
        theta, alpha = nets_pair(seed)
        value, grads = old_nll_value_grad(theta, examples, eta)
        for given_ in (examples, example_set):
            v, g = nll_value_grad(theta, given_, eta)
            assert v == value and same_grads(g, grads)
            assert nll_loss(theta, given_, eta) == old_nll_loss(theta, examples, eta)
            for reg in Regularizer:
                assert (minimax_objective(theta, alpha, given_, eta, reg)
                        == old_minimax_objective(theta, alpha, examples, eta, reg))
            assert (minimax_objective(theta, None, given_, eta, Regularizer.SHANNON_ENTROPY, True)
                    == old_minimax_objective(theta, None, examples, eta,
                                             Regularizer.SHANNON_ENTROPY, True))

    @given(case=ragged, seed=st.integers(0, 1000), k_eval=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_quality_metrics_same_bits_on_list_and_set(self, case, seed, k_eval):
        examples = ragged_examples(*case)
        example_set = ExampleSet.from_examples(examples)
        theta, _ = nets_pair(seed)
        for reg in Regularizer:
            model = UserModel(theta, induced_softmax_alpha(theta, 1.3), ChoiceConfig(1.3, reg))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an L2 model clamps zero-probability choices
                expected = old_heldout_loglik(model, examples)
                assert heldout_loglik(model, examples) == expected
                assert heldout_loglik(model, example_set) == expected
        clicks = [ex for ex in examples if ex.clicked]
        if not clicks or any(ex.n_items < k_eval for ex in clicks):
            for given_ in (examples, example_set):
                with pytest.raises(ValueError):
                    precision_at_k(model, given_, k_eval)
            return
        expected = old_precision_at_k(model, examples, k_eval)
        assert precision_at_k(model, examples, k_eval) == expected
        assert precision_at_k(model, example_set, k_eval) == expected

    @given(case=ragged)
    @settings(max_examples=40, deadline=None)
    def test_indexing_and_iteration_give_original_rows(self, case):
        examples = ragged_examples(*case)
        example_set = ExampleSet.from_examples(examples)
        assert len(example_set) == len(examples)
        rows = list(example_set)
        for i, ex in enumerate(examples):
            for got in (example_set[i], example_set[np.int64(i)], rows[i],
                        example_set[i - len(examples)]):
                assert np.array_equal(got.hist, ex.hist) and np.array_equal(got.disp, ex.disp)
                assert got.chosen == ex.chosen and got.n_items == ex.n_items
                assert got.clicked == ex.clicked

    def test_rows_are_read_only(self):
        example_set = ExampleSet.from_examples(ragged_examples(0, [3, 4, 3]))
        with pytest.raises(ValueError):
            example_set[0].hist[0, 0] = 1.0

    @pytest.mark.parametrize("n_items", [3, 1, 0])
    def test_from_examples_refuses_an_item_count_off_its_display(self, n_items):
        # a row's item count is its display's rows less the non-click slot; the set
        # keeps no count of its own, so it refuses an example that says otherwise
        examples = ragged_examples(1, [3, 4, 3, 5])
        examples[2] = Example(examples[2].hist, examples[2].disp, 0, n_items)
        with pytest.raises(ValueError, match="^example 2: n_items is not its display's rows"):
            ExampleSet.from_examples(examples)
        with pytest.raises(ValueError, match="^example 2: "):
            precision_at_k(UserModel(*nets_pair(0), ChoiceConfig()), examples, 1)


class TestBuildExamples:
    @given(seed=st.integers(0, 2**32 - 1), users=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_record_history_buffer(self, seed, users):
        # ragged slates (1 to 6 items per record) and clicks that outnumber m
        rng = np.random.default_rng(seed)
        catalog = synth_catalog(9, D, seed=seed % 100)
        trajs = []
        for u in range(users):
            records = []
            for step in range(1, int(rng.integers(1, 9)) + 1):
                shown = tuple(int(i) for i in rng.choice(np.arange(1, 10), int(rng.integers(1, 7)),
                                                         replace=False))
                chosen = shown[int(rng.integers(len(shown)))] if rng.random() < 0.7 else 0
                records.append(ClickRecord(step, shown, chosen))
            trajs.append(Trajectory(u, tuple(records)))
        oracle = old_build_examples(catalog, trajs, M)
        example_set = build_examples(catalog, trajs, M)
        assert len(example_set) == len(oracle)
        for got, ex in zip(example_set, oracle):
            assert np.array_equal(got.hist, ex.hist) and np.array_equal(got.disp, ex.disp)
            assert (got.chosen, got.n_items) == (ex.chosen, ex.n_items)
        for (_, F, feats, chosen), (_, oF, ofeats, ochosen) in zip(
                example_set.blocks(), old_batch_groups(oracle)):
            assert F.flags.c_contiguous and feats.flags.c_contiguous
            assert np.array_equal(F, oF) and np.array_equal(feats, ofeats)
            assert np.array_equal(chosen, ochosen)

    def test_empty_logs_give_empty_set(self):
        catalog = synth_catalog(4, D, seed=0)
        assert len(build_examples(catalog, [], M)) == 0
        with pytest.raises(ValueError, match="empty batch"):
            nll_loss(init_scorer_net(D, M, 2, 5, np.random.default_rng(0)), ExampleSet.from_examples([]), 1.0)


class TestSplitMinimaxStep:
    """One alpha step then one theta step equals two calls of the combined step."""

    @pytest.mark.parametrize("regularizer", [Regularizer.SHANNON_ENTROPY, Regularizer.L2])
    @pytest.mark.parametrize("seed", range(4))
    def test_split_step_equals_combined_step(self, regularizer, seed):
        rng = np.random.default_rng(100 + seed)
        examples = ragged_examples(seed, [int(s) for s in rng.integers(2, 8, size=40)])
        idx = rng.permutation(len(examples))[:25]
        config = TrainConfig(eta=float(rng.uniform(0.5, 2.0)), regularizer=regularizer,
                             m=M, n=2, hidden=5)
        theta, alpha = nets_pair(seed)
        old_theta, old_alpha = copy.deepcopy(theta), copy.deepcopy(alpha)

        # the combined step, as train_minimax ran it: the first call's alpha half,
        # then the second call's theta half
        batch = [examples[i] for i in idx]
        _, _, alpha_grads = old_minimax_value_grads(old_theta, old_alpha, batch, config)
        nets.sgd_step(old_alpha, alpha_grads, 0.1, ascend=True)
        value, theta_grads, _ = old_minimax_value_grads(old_theta, old_alpha, batch, config)
        nets.sgd_step(old_theta, theta_grads, 0.1)

        split_batch = ExampleSet.from_examples(examples).take(idx)
        new_alpha_grads = minimax_alpha_grad(theta, alpha, split_batch, config)
        assert same_grads(new_alpha_grads, alpha_grads)
        nets.sgd_step(alpha, new_alpha_grads, 0.1, ascend=True)
        new_value, new_theta_grads = minimax_value_grads(theta, alpha, split_batch, config)
        assert new_value == value and same_grads(new_theta_grads, theta_grads)
        nets.sgd_step(theta, new_theta_grads, 0.1)

        for new, old in ((theta, old_theta), (alpha, old_alpha)):
            for name, t in named_tensors(new).items():
                assert np.array_equal(t, named_tensors(old)[name])

    @pytest.mark.parametrize("regularizer", [Regularizer.SHANNON_ENTROPY, Regularizer.L2])
    def test_theta_half_on_the_alpha_halfs_forward(self, regularizer):
        # train_minimax hands the theta forward of its alpha half to its theta half: the
        # alpha step leaves theta as it was, so the theta half gives the same bits
        examples = ExampleSet.from_examples(ragged_examples(7, [2, 5, 3, 5, 7, 2, 4] * 4))
        config = TrainConfig(eta=1.3, regularizer=regularizer, m=M, n=2, hidden=5)
        theta, alpha = nets_pair(7)
        forward = _theta_forward(theta, examples)
        alpha_grads = minimax_alpha_grad(theta, alpha, examples, config, forward)
        assert same_grads(alpha_grads, minimax_alpha_grad(theta, alpha, examples, config))
        nets.sgd_step(alpha, alpha_grads, 0.1, ascend=True)
        value, grads = minimax_value_grads(theta, alpha, examples, config, forward)
        want_value, want_grads = minimax_value_grads(theta, alpha, examples, config)
        assert value == want_value and same_grads(grads, want_grads)


class TestForwardCounts:
    """scorer_batch calls, counted the way the traced benchmark counts them: theta's
    forward runs once per slot-count block, and every loss and metric reads it."""

    @pytest.mark.parametrize("regularizer, forwards", [(Regularizer.SHANNON_ENTROPY, 1),
                                                       (Regularizer.L2, 3)], ids=["mle", "l2"])
    def test_one_minibatch_of_uniform_displays(self, monkeypatch, count_calls, regularizer, forwards):
        # an MLE update runs theta once; a minimax update runs theta once, shared by its two
        # halves, and alpha twice (for alpha's gradient, then for phi in theta's)
        grabbed = {}
        monkeypatch.setattr(training, "_fit", lambda params, examples, config, rng, theta_grad, *_, **__:
                            grabbed.update(theta_grad=theta_grad))
        batch = ExampleSet.from_examples(ragged_examples(3, [4] * 16))
        fit = training.train_minimax if regularizer is Regularizer.L2 else training.train_mle
        fit(synth_catalog(10, D), batch, TrainConfig(regularizer=regularizer, m=M, n=2, hidden=5))
        calls = count_calls({nets: ("scorer_batch",)})
        grabbed["theta_grad"](batch)
        assert calls == {"scorer_batch": forwards}

    @pytest.mark.parametrize("metric", ["nll_loss", "precision_at_k", "heldout_loglik"])
    def test_metric_runs_one_forward_per_slot_count(self, count_calls, metric):
        examples = ExampleSet.from_examples(ragged_examples(5, [2, 3, 5] * 12))
        clicked_slots = examples.slots[examples.rows][examples.clicked]
        assert set(clicked_slots) == {2, 3, 5}  # precision_at_k scores the clicked rows only
        theta = nets_pair(0)[0]
        model = UserModel(theta, induced_softmax_alpha(theta, 1.0), ChoiceConfig())
        run = {"nll_loss": lambda: nll_loss(theta, examples, 1.0),
               "precision_at_k": lambda: precision_at_k(model, examples, 1),
               "heldout_loglik": lambda: heldout_loglik(model, examples)}[metric]
        calls = count_calls({nets: ("scorer_batch",)})
        run()
        assert calls == {"scorer_batch": 3}


def test_precision_at_k_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call in a process (~10 ms): in a fresh
    # process, precision_at_k must leave it unimported
    code = """
import sys
import numpy as np
from slatesim.nets import init_scorer_net
from slatesim.training import Example, UserModel, precision_at_k
from slatesim.choice import ChoiceConfig
rng = np.random.default_rng(0)
examples = [Example(hist=rng.standard_normal((3, 2)), disp=rng.standard_normal((n + 1, 3)),
                    chosen=int(rng.integers(0, n)), n_items=n) for n in (2, 4, 3, 4, 2, 5)]
theta = init_scorer_net(3, 2, 2, 4, rng)
before = "numpy.ma" in sys.modules
precision_at_k(UserModel(theta, theta, ChoiceConfig()), examples, 2)
print(before, "numpy.ma" in sys.modules)
"""
    src = str(Path(training.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
