import numpy as np
import pytest

from slatesim.agent import net_qeval
from slatesim.choice import Regularizer, logsumexp, softmax
from slatesim.data import synth_catalog
from slatesim.nets import (
    PositionWeightParams,
    ScorerNet,
    ScoreBuffers,
    ScorerParams,
    act,
    act_grad,
    cascade_head_names,
    embed_history,
    finite_difference_grad,
    head_scores,
    init_cascade_net,
    init_scorer_net,
    load_tensors,
    minimax_behavior_value_and_grad,
    minimax_reward_value_and_grad,
    named_tensors,
    nll_value_and_grad,
    run_gradient_check,
    save_tensors,
    scorer_batch,
    scorer_batch_grad,
    sgd_step,
    td_value_and_grad,
)


def oracle_act(z):
    # straight-line ELU reference, scalar by scalar
    out = np.zeros_like(z, dtype=float)
    for idx in np.ndindex(z.shape):
        x = z[idx]
        out[idx] = x if x > 0 else np.exp(x) - 1.0
    return out


def oracle_embed(F, W, B):
    # explicit loops: column c of act(F W + B), concatenated column-major
    d, m = F.shape
    n = W.shape[1]
    Z = np.zeros((d, n))
    for i in range(d):
        for c in range(n):
            Z[i, c] = sum(F[i, p] * W[p, c] for p in range(m)) + B[i, c]
    S = oracle_act(Z)
    return np.concatenate([S[:, c] for c in range(n)])


def oracle_score(V, b, v, state, feats):
    x = np.concatenate([state, feats])
    z = np.array([sum(V[r, i] * x[i] for i in range(x.size)) + b[r] for r in range(V.shape[0])])
    h = oracle_act(z)
    return float(sum(v[r] * h[r] for r in range(v.size)))


class TestEmbedState:
    def test_zero_params_give_zero_vector(self):
        pw = PositionWeightParams(W=np.zeros((3, 2)), B=np.zeros((4, 2)))
        out = embed_history(np.random.default_rng(0).standard_normal((4, 3)), pw)
        assert out.shape == (8,)
        assert np.all(out == 0.0)

    def test_zero_history_any_weights(self):
        rng = np.random.default_rng(1)
        pw = PositionWeightParams(W=rng.standard_normal((3, 2)), B=np.zeros((4, 2)))
        assert np.all(embed_history(np.zeros((4, 3)), pw) == 0.0)

    def test_matches_dense_algebra_oracle(self):
        rng = np.random.default_rng(2)
        d, m, n = 3, 4, 2
        pw = PositionWeightParams(W=rng.standard_normal((m, n)), B=rng.standard_normal((d, n)))
        F = rng.standard_normal((d, m))
        assert np.allclose(embed_history(F, pw), oracle_embed(F, pw.W, pw.B), atol=1e-12)

    def test_output_length(self):
        pw = PositionWeightParams(W=np.ones((3, 5)), B=np.ones((2, 5)))
        assert embed_history(np.zeros((2, 3)), pw).shape == (10,)

    def test_dimension_mismatch(self):
        pw = PositionWeightParams(W=np.ones((3, 2)), B=np.ones((2, 2)))
        with pytest.raises(ValueError, match="history shape"):
            embed_history(np.zeros((2, 4)), pw)


class TestScorers:
    def test_zero_output_layer(self):
        head = ScorerParams(V=np.ones((3, 5)), b=np.ones(3), v=np.zeros(3))
        assert head_scores(head, np.zeros(3), np.zeros(2))[0] == 0.0

    def test_linear_regime_sums_inputs(self):
        # a positive pre-activation, where the ELU is the identity
        head = ScorerParams(V=np.ones((1, 4)), b=np.zeros(1), v=np.ones(1))
        out = head_scores(head, np.array([1.0, 2.0]), np.array([3.0, 4.0]))[0]
        assert out == pytest.approx(10.0)

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(5)
        dn, d, hid = 6, 3, 4
        head = ScorerParams(V=rng.standard_normal((hid, dn + d)), b=rng.standard_normal(hid),
                            v=rng.standard_normal(hid))
        state = rng.standard_normal(dn)
        feats = rng.standard_normal(d)
        expect = oracle_score(head.V, head.b, head.v, state, feats)
        assert head_scores(head, state, feats)[0] == pytest.approx(expect, abs=1e-12)


def where_act(z):
    # the np.where forms act and act_grad replaced, which they match bit for bit
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def where_act_grad(z):
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestActivation:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
               -1e-17, -1e-8, -37.0, -745.0, -746.0, -1e300, 1e300]

    @pytest.mark.parametrize("shape", [(20, 16), (80, 50, 16)])
    @pytest.mark.parametrize("fn, reference", [(act, where_act), (act_grad, where_act_grad)])
    def test_bits_match_where_form(self, shape, fn, reference):
        rng = np.random.default_rng(len(shape))
        z = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 4, size=shape)
        z.reshape(-1)[rng.choice(z.size, len(self.SPECIAL), replace=False)] = self.SPECIAL
        got = fn(z)
        assert got.shape == shape
        assert np.array_equal(bits(got), bits(reference(z)))

    def test_sign_of_zero(self):
        # np.minimum(-0.0, 0.0) may give either zero; act must give the np.where form's
        for z in (np.array([0.0, -0.0]), np.array([-0.0]), np.full(1000, -0.0)):
            assert np.signbit(act(z)).tolist() == np.signbit(where_act(z)).tolist()
            assert act_grad(z).tolist() == [1.0] * len(z)

    @pytest.mark.parametrize("shape", [(20, 16), (80, 50, 16)])
    def test_in_place_bits_match_where_form(self, shape):
        # given a scratch array, act writes the ELU over z itself, bit for bit as a fresh one
        rng = np.random.default_rng(len(shape))
        z = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 4, size=shape)
        z.reshape(-1)[rng.choice(z.size, len(self.SPECIAL), replace=False)] = self.SPECIAL
        expected = where_act(z)
        assert act(z, np.full(shape, np.nan)) is z
        assert np.array_equal(bits(z), bits(expected))
        for zero in (np.array([0.0, -0.0]), np.full(1000, -0.0)):
            expected = np.signbit(where_act(zero)).tolist()
            assert np.signbit(act(zero, np.empty_like(zero))).tolist() == expected

    @pytest.mark.parametrize("fn", [act, act_grad])
    def test_input_unchanged(self, fn):
        z = np.random.default_rng(0).standard_normal((80, 50, 16))
        before = z.copy()
        out = fn(z)
        assert not np.shares_memory(out, z)
        assert np.array_equal(bits(z), bits(before))


class TestOnePass:
    def test_scorer_batch_is_embed_history_then_head_scores(self):
        # training's forward and inference's are the same code: bit for bit on random shapes
        rng = np.random.default_rng(11)
        for _ in range(300):
            d, m, n, hidden = (int(x) for x in rng.integers(1, 9, size=4))
            batch, slots = int(rng.integers(1, 71)), int(rng.integers(1, 8))
            net = init_scorer_net(d, m, n, hidden, rng)
            F = rng.standard_normal((batch, d, m))
            feats = rng.standard_normal((batch, slots, d))
            cache = scorer_batch(net, F, feats)
            state = embed_history(F, net.pw)
            assert np.array_equal(bits(cache.s), bits(state))
            assert np.array_equal(bits(cache.scores), bits(head_scores(net.head, state, feats)))

    def test_nll_shares_one_exp_between_logsumexp_and_softmax(self):
        # the value and gradient are bit for bit the separate logsumexp and softmax forms
        rng = np.random.default_rng(13)
        for _ in range(2000):
            d, m, n, hidden = (int(x) for x in rng.integers(1, 6, size=4))
            batch, slots = int(rng.integers(1, 20)), int(rng.integers(1, 8))
            net = init_scorer_net(d, m, n, hidden, rng)
            F = rng.standard_normal((batch, d, m)) * rng.choice([0.1, 1.0, 10.0])
            feats = rng.standard_normal((batch, slots, d))
            chosen, eta = rng.integers(0, slots, size=batch), float(rng.uniform(0.1, 5.0))
            cache = scorer_batch(net, F, feats)
            logits, rows = eta * cache.scores, np.arange(batch)
            w = softmax(logits)
            w[rows, chosen] -= 1.0
            w *= eta / batch
            want = scorer_batch_grad(net, cache, w)
            value, grads = nll_value_and_grad(net, scorer_batch(net, F, feats), chosen, eta)
            want_value = np.float64(np.mean(logsumexp(logits) - logits[rows, chosen]))
            assert bits(np.float64(value)) == bits(want_value)
            assert grads.keys() == want.keys()
            assert all(np.array_equal(bits(grads[name]), bits(want[name])) for name in want)


    def test_kept_work_arrays_give_fresh_bits(self):
        # one ScoreBuffers across heads and shapes, reused or reallocated, one state or a batch
        rng = np.random.default_rng(12)
        work = ScoreBuffers()
        for _ in range(300):
            d, m, n = (int(x) for x in rng.integers(1, 9, size=3))
            hidden, batch, slots = (int(rng.choice(sizes)) for sizes in ([4, 16], [1, 7, 80], [5, 50]))
            net = init_scorer_net(d, m, n, hidden, rng)
            state = embed_history(rng.standard_normal((batch, d, m)), net.pw)
            feats = rng.standard_normal((batch, slots, d))
            if rng.random() < 0.3:
                state, feats = state[0], feats[0]
            expected = head_scores(net.head, state, feats)
            assert np.array_equal(bits(head_scores(net.head, state, feats, work=work)), bits(expected))
            assert work.pair[0].shape == feats.shape[:-1] + (hidden,)


class TestCascadeHeads:
    # head j is a plain scorer head whose item input is the prefix [f_1; ...; f_j]
    def _heads(self, rng, d=3, dn=6, hid=4, k=3):
        return [ScorerParams(V=rng.standard_normal((hid, dn + d * j)), b=rng.standard_normal(hid),
                             v=rng.standard_normal(hid)) for j in range(1, k + 1)]

    def test_zero_head_gives_zero(self):
        rng = np.random.default_rng(0)
        heads = self._heads(rng)
        heads[1].v = np.zeros_like(heads[1].v)
        out = head_scores(heads[1], np.zeros(6), np.zeros(6))[0]
        assert out == 0.0

    def test_wrong_arity(self):
        qnet = init_cascade_net(3, 2, 2, 4, 3, np.random.default_rng(1))
        with pytest.raises(ValueError, match="expected 3 item vectors of 3 features, got 2 of 3"):
            td_value_and_grad(qnet, np.zeros((1, 3, 2)), np.zeros((1, 2, 3)), np.zeros(1))

    def test_j1_matches_scorer_oracle(self):
        rng = np.random.default_rng(2)
        head = self._heads(rng)[0]
        state, f = rng.standard_normal(6), rng.standard_normal(3)
        expect = oracle_score(head.V, head.b, head.v, state, f)
        assert head_scores(head, state, f)[0] == pytest.approx(expect, abs=1e-12)

    def test_order_sensitivity(self):
        # the per-position heads impose no symmetry in the chosen-item ordering
        rng = np.random.default_rng(3)
        head = self._heads(rng)[1]
        state = rng.standard_normal(6)
        f1, f2 = rng.standard_normal(3), rng.standard_normal(3)
        a = head_scores(head, state, np.concatenate([f1, f2]))[0]
        b = head_scores(head, state, np.concatenate([f2, f1]))[0]
        assert a != pytest.approx(b, abs=1e-9)

    def test_net_qeval_matches_oracle_score(self):
        rng = np.random.default_rng(5)
        catalog = synth_catalog(8, 3, seed=1)
        qnet = init_cascade_net(3, 4, 2, 5, 3, rng)
        state = rng.standard_normal(6)
        qeval = net_qeval(qnet, state, catalog)
        prefix = (2, 5)
        cands = (1, 3, 7)
        vals = qeval(3, prefix, cands)
        head = qnet.heads[2]
        for i, a in enumerate(cands):
            feats = np.concatenate([catalog.features(x) for x in prefix + (a,)])
            expect = oracle_score(head.V, head.b, head.v, state, feats)
            assert vals[i] == pytest.approx(expect, abs=1e-12)


class TestGradients:
    def test_constant_loss_zero_bundle(self):
        # a single-slot display has probability one: NLL == 0 for any parameters
        rng = np.random.default_rng(4)
        net = init_scorer_net(3, 4, 2, 5, rng)
        F = rng.standard_normal((2, 3, 4))
        feats = rng.standard_normal((2, 1, 3))
        value, grads = nll_value_and_grad(net, scorer_batch(net, F, feats), np.zeros(2, dtype=int), eta=1.3)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert max(float(np.max(np.abs(g))) for g in grads.values()) <= 1e-12

    def test_bundles_name_the_parameters(self):
        rng = np.random.default_rng(6)
        net = init_scorer_net(2, 3, 2, 4, rng)
        F = rng.standard_normal((3, 2, 3))
        feats = rng.standard_normal((3, 4, 2))
        _, g1 = nll_value_and_grad(net, scorer_batch(net, F, feats), np.array([0, 2, 3]), eta=1.0)
        assert set(g1) == {"W", "B", "V", "b", "v"}
        qnet = init_cascade_net(2, 3, 2, 4, 2, rng)
        _, g2 = td_value_and_grad(qnet, F, rng.standard_normal((3, 2, 2)), np.ones(3))
        assert set(g2) == {"W", "B", "L1", "c1", "q1", "L2", "c2", "q2"}

    def test_finite_difference_all_kinds(self):
        # acceptance runs 100 trials; keep the unit version small but complete
        assert run_gradient_check(seed=123, trials=16, dims_max=5) <= 1e-4

    def test_nll_stationary_at_generating_parameters(self):
        # data drawn from the model's own softmax: gradient norm at the generator
        # should be smaller than at perturbed parameters
        rng = np.random.default_rng(7)
        d, m, n, hid, slots = 3, 3, 2, 5, 4
        net = init_scorer_net(d, m, n, hid, rng)
        B = 3000
        F = rng.standard_normal((B, d, m))
        feats = rng.standard_normal((B, slots, d))
        from slatesim.nets import scorer_batch
        scores = scorer_batch(net, F, feats).scores
        z = scores - scores.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        chosen = np.array([rng.choice(slots, p=row) for row in p])

        def grad_norm(model):
            g = nll_value_and_grad(model, scorer_batch(model, F, feats), chosen, eta=1.0)[1]
            return np.sqrt(sum(float(np.sum(t * t)) for t in g.values()))

        base = grad_norm(net)
        worse = 0
        for trial in range(20):
            pert = init_scorer_net(d, m, n, hid, np.random.default_rng(100 + trial))
            for name, t in named_tensors(pert).items():
                t *= 0.6
                t += named_tensors(net)[name]
            worse += grad_norm(pert) > base
        assert worse >= 18


def per_head_td(qnet, F, slate_feats, targets):
    # the per-head TD loss the block pass replaced: each head embeds the histories and
    # regresses its prefix [f_1; ...; f_j] alone; the value is the heads' mean, the
    # gradient their sum
    batch, k, _ = slate_feats.shape
    value, total = 0.0, {}
    for j in range(1, k + 1):
        view = ScorerNet(pw=qnet.pw, head=qnet.heads[j - 1])
        cache = scorer_batch(view, F, slate_feats[:, :j].reshape(batch, 1, -1))
        resid = cache.scores[:, 0] - targets
        value += float(np.mean(resid * resid))
        g = scorer_batch_grad(view, cache, (2.0 * resid / batch)[:, None])
        names = cascade_head_names(j)
        for name, t in g.items():
            name = names.get(name, name)
            total[name] = total[name] + t if name in total else t
    return value / k, total


class TestTdBlock:
    def _case(self, seed, k, d, m, n, hidden, batch):
        rng = np.random.default_rng(seed)
        qnet = init_cascade_net(d, m, n, hidden, k, rng)
        return (qnet, rng.standard_normal((batch, d, m)), rng.standard_normal((batch, k, d)),
                rng.standard_normal(batch))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_per_head_oracle(self, k):
        # uneven dims, so no axis can stand in for another
        for seed, dims in enumerate([(8, 5, 4, 16, 32), (3, 2, 5, 7, 9), (1, 6, 1, 3, 1), (5, 1, 3, 2, 4)]):
            qnet, F, slate, targets = self._case(100 * k + seed, k, *dims)
            value, grads = td_value_and_grad(qnet, F, slate, targets)
            oracle_value, oracle = per_head_td(qnet, F, slate, targets)
            assert value == pytest.approx(oracle_value, rel=1e-12, abs=0)
            assert set(grads) == set(oracle) == set(named_tensors(qnet))
            for name, g in oracle.items():
                assert grads[name].shape == g.shape, name
                assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_finite_differences(self, k):
        qnet, F, slate, targets = self._case(k, k, 3, 4, 2, 5, 4)
        _, grads = td_value_and_grad(qnet, F, slate, targets)
        # the gradient is of the heads' summed loss: k times the returned mean
        numeric = finite_difference_grad(lambda: k * td_value_and_grad(qnet, F, slate, targets)[0], qnet)
        assert set(grads) == set(numeric)
        for name, g in grads.items():
            assert np.allclose(g, numeric[name], rtol=0, atol=1e-6), name

    def test_gradient_check_regresses_every_head(self, monkeypatch):
        import slatesim.nets as nets
        seen = []
        real = nets.td_value_and_grad

        def recording(qnet, F, slate_feats, targets):
            seen.append((qnet.k, slate_feats.shape[1]))
            return real(qnet, F, slate_feats, targets)

        monkeypatch.setattr(nets, "td_value_and_grad", recording)
        assert run_gradient_check(seed=5, trials=40, dims_max=4) <= 1e-4
        assert seen and all(k == slots for k, slots in seen)
        assert {k for k, _ in seen} == {1, 2, 3}


class TestSgdStep:
    def test_zero_lr_unchanged(self):
        rng = np.random.default_rng(8)
        net = init_scorer_net(2, 2, 2, 3, rng)
        before = {k: t.copy() for k, t in named_tensors(net).items()}
        g = {k: np.ones_like(t) for k, t in named_tensors(net).items()}
        sgd_step(net, g, learning_rate=0.0)
        for k, t in named_tensors(net).items():
            assert np.array_equal(t, before[k])

    def test_quadratic_single_step(self):
        # f(p) = p^2 from p=1 with lr 0.1 lands on 0.8
        p = PositionWeightParams(W=np.array([[1.0]]), B=np.zeros((1, 1)))
        g = {"W": 2.0 * p.W}
        sgd_step(p, g, learning_rate=0.1)
        assert p.W[0, 0] == pytest.approx(0.8)

    def test_ascend_flag(self):
        p = PositionWeightParams(W=np.array([[1.0]]), B=np.zeros((1, 1)))
        sgd_step(p, {"W": np.array([[1.0]])}, 0.5, ascend=True)
        assert p.W[0, 0] == pytest.approx(1.5)

    def test_shape_mismatch(self):
        p = PositionWeightParams(W=np.ones((2, 2)), B=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(p, {"W": np.ones((3, 2))}, 0.1)

    def test_two_half_steps_equal_one_full_on_linear(self):
        # lr-linearity: constant gradient accumulates additively
        a = PositionWeightParams(W=np.array([[4.0]]), B=np.zeros((1, 1)))
        b = PositionWeightParams(W=np.array([[4.0]]), B=np.zeros((1, 1)))
        g = {"W": np.array([[1.0]])}
        sgd_step(a, g, 0.2)
        sgd_step(b, g, 0.1)
        sgd_step(b, g, 0.1)
        assert a.W[0, 0] == pytest.approx(b.W[0, 0])


class TestCheckpoints:
    def test_tensor_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        tensors = {"A": rng.standard_normal((3, 4)), "bias": rng.standard_normal(5)}
        path = tmp_path / "model.ckpt"
        save_tensors(path, tensors, {"note": "test", "k": "3"})
        loaded, meta = load_tensors(path)
        assert meta == {"note": "test", "k": "3"}
        for name, t in tensors.items():
            assert np.array_equal(loaded[name], t)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_tensors(path)

    def test_save_deterministic(self, tmp_path):
        tensors = {"x": np.linspace(0, 1, 7)}
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_tensors(p1, tensors)
        save_tensors(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()


class TestMinimaxGradientSigns:
    def test_behavior_ascent_improves_objective(self):
        rng = np.random.default_rng(10)
        net = init_scorer_net(2, 3, 2, 6, rng)
        F = rng.standard_normal((4, 2, 3))
        feats = rng.standard_normal((4, 5, 2))
        rewards = rng.standard_normal((4, 5))
        v0, g = minimax_behavior_value_and_grad(net, scorer_batch(net, F, feats), rewards, 1.0,
                                                Regularizer.SHANNON_ENTROPY)
        sgd_step(net, g, 1e-3, ascend=True)
        v1, _ = minimax_behavior_value_and_grad(net, scorer_batch(net, F, feats), rewards, 1.0,
                                                Regularizer.SHANNON_ENTROPY)
        assert v1 > v0

    def test_reward_descent_reduces_objective(self):
        rng = np.random.default_rng(11)
        net = init_scorer_net(2, 3, 2, 6, rng)
        F = rng.standard_normal((4, 2, 3))
        feats = rng.standard_normal((4, 5, 2))
        chosen = rng.integers(0, 5, size=4)
        raw = rng.random((4, 5))
        phi = raw / raw.sum(axis=1, keepdims=True)
        v0, g = minimax_reward_value_and_grad(net, scorer_batch(net, F, feats), chosen, phi, 1.0,
                                              Regularizer.SHANNON_ENTROPY)
        sgd_step(net, g, 1e-3)
        v1, _ = minimax_reward_value_and_grad(net, scorer_batch(net, F, feats), chosen, phi, 1.0,
                                              Regularizer.SHANNON_ENTROPY)
        assert v1 < v0
