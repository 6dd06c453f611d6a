"""Shallow parameterized scorers with exact hand-derived gradients.

Every network is a position-weighted history embedding feeding scorer heads:
  * state embedding  s = vec[act(F @ W + B)]  with F the d x m click history,
  * scorer head  v' act(V [s; f] + b), scoring one "item" input f against s.

The reward and behavior models are one head each, with f an item's features.
The slate value model has one head per slate position: head j is a plain
scorer head whose item input is the prefix [f_1; ...; f_j]. The TD loss pads
it to [s; f_1; ...; f_k] and runs all k heads as one block matmul forward and
backward, on one embedding forward and backward that the heads share.

Gradients for the supported losses (NLL, the two adversarial updates, squared
TD error) are computed analytically, including backprop through the embedding,
and returned as name -> array dicts keyed as named_tensors, which sgd_step applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .choice import Regularizer, softmax
from .data import read_lines, write_lines


def act(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """ELU, every network's activation: max(z, expm1(min(z, 0))), in a fresh array or in z with
    `scratch`. It and act_grad's exp(min(z, 0)) are bit for bit the np.where(z > 0, ...) forms."""
    out = np.minimum(z, 0.0, out=scratch)
    return np.maximum(z, np.expm1(out, out=out), out=out if scratch is None else z)


def act_grad(z: np.ndarray) -> np.ndarray:
    out = np.minimum(z, 0.0)
    return np.exp(out, out=out)


@dataclass
class PositionWeightParams:
    """Position-weight embedding: W mixes history positions, B is a per-feature bias."""

    W: np.ndarray  # (m, n)
    B: np.ndarray  # (d, n)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.W.ndim != 2 or self.B.ndim != 2 or self.W.shape[1] != self.B.shape[1]:
            raise ValueError("W must be (m, n) and B (d, n) with matching n")
        if self.W.shape[1] < 1:
            raise ValueError("n must be >= 1")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.B))):
            raise ValueError("non-finite embedding parameters")

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.W.shape[1]

    @property
    def d(self) -> int:
        return self.B.shape[0]

    def head_inputs(self, j: int) -> int:
        """Input width d*n + j*d of a head that scores the state against j items [f_1; ...; f_j]."""
        return self.d * self.n + j * self.d


@dataclass
class ScorerParams:
    """Single hidden layer head scoring a (state, item-features) pair."""

    V: np.ndarray  # (hidden, dn + d)
    b: np.ndarray  # (hidden,)
    v: np.ndarray  # (hidden,)

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if (self.V.ndim, self.b.ndim, self.v.ndim) != (2, 1, 1):
            raise ValueError(f"head tensors V, b, v need 2, 1, 1 dimensions, got "
                             f"{self.V.ndim}, {self.b.ndim}, {self.v.ndim}")
        h = self.V.shape[0]
        if h < 1 or self.b.shape != (h,) or self.v.shape != (h,):
            raise ValueError("inconsistent head shapes")
        for t in (self.V, self.b, self.v):
            if not np.all(np.isfinite(t)):
                raise ValueError("non-finite head parameters")


@dataclass
class ScorerNet:
    """Full reward/behavior scorer: its own embedding plus a head."""

    pw: PositionWeightParams
    head: ScorerParams


@dataclass
class CascadeQNet:
    """Slate value model: one shared embedding feeding k per-position scorer heads.

    heads[j - 1] scores the state against the prefix [f_1; ...; f_j] of j items."""

    pw: PositionWeightParams
    heads: list[ScorerParams]

    def __post_init__(self):
        if not self.heads:
            raise ValueError("need at least one head")

    @property
    def k(self) -> int:
        return len(self.heads)


def cascade_head_names(j: int) -> dict[str, str]:
    """Checkpoint and gradient names of cascade head j's V, b, v: L{j}, c{j}, q{j}."""
    return {"V": f"L{j}", "b": f"c{j}", "v": f"q{j}"}


# ---------------------------------------------------------------------------
# forward passes


def embed_history(F: np.ndarray, pw: PositionWeightParams, pre: bool = False):
    """Embed one d x m history matrix into a length d*n state vector.

    Columns of act(F @ W + B) are concatenated (column-major vec). Batched:
    (B, d, m) histories give (B, dn) states, each row bit-identical to its
    single-history embedding (the matmul runs per history). With `pre`, returns
    the state and the pre-activation F @ W + B, which the backward pass reuses."""
    F = np.asarray(F, dtype=float)
    if F.shape[-2:] != (pw.d, pw.m):
        raise ValueError(f"history shape {F.shape} does not match ({pw.d}, {pw.m})")
    Ze = F @ pw.W + pw.B
    s = act(Ze).swapaxes(-1, -2).reshape(F.shape[:-2] + (-1,))
    return (s, Ze) if pre else s


class ScoreBuffers:
    """head_scores' two (..., hidden) work arrays, kept across calls until one of another shape."""

    pair = (np.empty(0), np.empty(0))  # each instance sets its own on its first call

    def __call__(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        if self.pair[0].shape != shape:
            self.pair = (np.empty(shape), np.empty(shape))
        return self.pair


def head_scores(head: ScorerParams, state: np.ndarray, feats: np.ndarray, pre: bool = False,
                work: ScoreBuffers | None = None):
    """Scores (..., slots) of each row of `feats` (..., slots, d) against its state (..., dn);
    both products run per row, so a row's scores are bit for bit its scores alone (B=1).

    With `pre`, returns the pre-activation z, act(z) and the scores, which the
    backward pass reuses. With `work`, z and act(z) reuse its arrays, bit for bit."""
    state = np.asarray(state, dtype=float)
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    d = feats.shape[-1]
    dn = head.V.shape[1] - d
    if state.shape != feats.shape[:-2] + (dn,):
        raise ValueError(f"state shape {state.shape} incompatible with head input "
                         f"{head.V.shape[1]} and item features {feats.shape}")
    # in-place sums: cascade_batch's per-head call (agent.net_qeval runs these steps inline)
    shape = feats.shape[:-1] + (head.V.shape[0],)
    z, scratch = (np.empty(shape), None) if work is None else work(shape)
    np.matmul(feats, head.V[:, dn:].T, out=z)
    z += state[..., None, :] @ head.V[:, :dn].T
    z += head.b
    h = act(z, None if pre else scratch)
    return (z, h, h @ head.v) if pre else h @ head.v


# ---------------------------------------------------------------------------
# batched forward/backward through embedding + head


@dataclass
class _ScorerCache:
    F: np.ndarray      # (batch, d, m)
    feats: np.ndarray  # (batch, slots, d)
    Ze: np.ndarray     # (batch, d, n)
    s: np.ndarray      # (batch, dn)
    z: np.ndarray      # (batch, slots, hidden)
    h: np.ndarray      # act(z)
    scores: np.ndarray  # (batch, slots)


def scorer_batch(net: ScorerNet, F: np.ndarray, feats: np.ndarray) -> _ScorerCache:
    """Forward a batch of histories against per-record display features.

    F: (batch, d, m); feats: (batch, slots, d). The state is embed_history's
    and the scores head_scores', bit for bit."""
    s, Ze = embed_history(F, net.pw, pre=True)
    z, h, scores = head_scores(net.head, s, feats, pre=True)
    return _ScorerCache(F=F, feats=feats, Ze=Ze, s=s, z=z, h=h, scores=scores)


def scorer_batch_grad(net: ScorerNet, cache: _ScorerCache, slot_w: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of sum_{b,s} slot_w[b,s] * score[b,s] w.r.t. all net parameters, keyed as
    named_tensors(net)."""
    batch, d, n = cache.Ze.shape
    rows = slot_w.size                        # contractions over (batch, slot) pairs are matmuls
    dv = slot_w.reshape(-1) @ cache.h.reshape(rows, -1)
    dz = act_grad(cache.z)
    dz *= slot_w[:, :, None]
    dz *= net.head.v
    db = dz.sum(axis=(0, 1))
    dVf = dz.reshape(rows, -1).T @ cache.feats.reshape(rows, -1)
    dzb = dz.sum(axis=1)                      # (batch, hidden)
    dVs = dzb.T @ cache.s                     # (hidden, dn)
    ds = dzb @ net.head.V[:, :d * n]          # (batch, dn)
    return {**_embed_grad(net.pw, cache.F, cache.Ze, ds),
            "V": np.concatenate([dVs, dVf], axis=1), "b": db, "v": dv}


def _embed_grad(pw: PositionWeightParams, F: np.ndarray, Ze: np.ndarray, ds: np.ndarray) -> dict:
    batch, d, n = Ze.shape
    dZe = ds.reshape(batch, n, d).transpose(0, 2, 1) * act_grad(Ze)
    return {"W": F.reshape(-1, pw.m).T @ dZe.reshape(-1, n), "B": dZe.sum(axis=0)}


# ---------------------------------------------------------------------------
# losses and their exact gradients


def nll_value_and_grad(net: ScorerNet, cache: _ScorerCache, chosen, eta: float):
    """Mean negative log-likelihood of the observed choices under softmax(eta * scores).

    This and the two minimax losses take `cache`, net's scorer_batch forward of the block."""
    chosen = np.asarray(chosen, dtype=int)
    logits = eta * cache.scores
    batch = logits.shape[0]
    rows = np.arange(batch)
    # one exp(logits - max) for both: logsumexp's and softmax's arithmetic, bit for bit
    top = logits.max(axis=-1, keepdims=True)
    w = np.exp(logits - top)
    total = w.sum(axis=-1, keepdims=True)
    value = float(np.mean(top[:, 0] + np.log(total[:, 0]) - logits[rows, chosen]))
    w /= total
    w[rows, chosen] -= 1.0
    w *= eta / batch
    return value, scorer_batch_grad(net, cache, w)


def minimax_reward_value_and_grad(net: ScorerNet, cache: _ScorerCache, chosen, phi: np.ndarray,
                                  eta: float, regularizer: Regularizer):
    """Adversarial update for the reward scorer, with the generator phi held fixed.

    Value is the mean per-record objective  <phi, r> - R(phi)/eta - r_true;
    the gradient descends it (phi is a constant here)."""
    chosen = np.asarray(chosen, dtype=int)
    batch = cache.scores.shape[0]
    rows = np.arange(batch)
    value = float(np.mean(
        np.sum(phi * cache.scores, axis=1)
        - regularizer.omega(phi) / eta
        - cache.scores[rows, chosen]
    ))
    w = phi.copy()
    w[rows, chosen] -= 1.0
    w /= batch
    return value, scorer_batch_grad(net, cache, w)


def minimax_behavior_value_and_grad(net: ScorerNet, cache: _ScorerCache, rewards: np.ndarray,
                                    eta: float, regularizer: Regularizer):
    """Generator objective  <phi_alpha, r> - R(phi_alpha)/eta  with rewards held fixed.

    phi_alpha is the softmax of the behavior logits; the returned gradient is of
    the mean objective w.r.t. the behavior parameters (caller ascends)."""
    phi = softmax(cache.scores)
    value = float(np.mean(np.sum(phi * rewards, axis=1) - regularizer.omega(phi) / eta))
    g = rewards - regularizer.omega_grad(phi) / eta
    w = phi * (g - np.sum(phi * g, axis=1, keepdims=True))
    w /= cache.scores.shape[0]
    return value, scorer_batch_grad(net, cache, w)


def td_value_and_grad(qnet: CascadeQNet, F, slate_feats: np.ndarray, targets: np.ndarray):
    """Squared TD error of every cascade head against shared targets, in one pass.

    slate_feats: (batch, k, d), the played slates. Returns the mean over heads of each
    head's mean squared error, and the sum over heads of their gradients (k times the
    mean's gradient). Head j's input is zero-padded to [s; f_1; ...; f_k], so all heads
    run as one (k * hidden, dn + k * d) matmul forward and backward on one embedding."""
    batch, k, d = slate_feats.shape
    if (k, d) != (qnet.k, qnet.pw.d):
        raise ValueError(f"expected {qnet.k} item vectors of {qnet.pw.d} features, got {k} of {d}")
    s, Ze = embed_history(F, qnet.pw, pre=True)
    X = np.concatenate([s, slate_feats.reshape(batch, -1)], axis=1)
    sizes = [head.b.size for head in qnet.heads]
    starts = np.cumsum([0] + sizes[:-1])
    V = np.zeros((sum(sizes), X.shape[1]))
    for head, at in zip(qnet.heads, starts):
        V[at:at + head.b.size, :head.V.shape[1]] = head.V
    v = np.concatenate([head.v for head in qnet.heads])
    z = X @ V.T + np.concatenate([head.b for head in qnet.heads])
    h = act(z)
    resid = np.add.reduceat(h * v, starts, axis=1) - np.asarray(targets, dtype=float)[:, None]
    w = np.repeat(2.0 * resid / batch, sizes, axis=1)  # per hidden unit, its head's weight
    dz = act_grad(z) * w * v
    grads = _embed_grad(qnet.pw, F, Ze, dz @ V[:, :s.shape[1]])
    dV, db, dv = dz.T @ X, dz.sum(axis=0), (w * h).sum(axis=0)
    for j, (head, at) in enumerate(zip(qnet.heads, starts), start=1):
        rows, names = slice(at, at + head.b.size), cascade_head_names(j)
        grads.update({names["V"]: dV[rows, :head.V.shape[1]], names["b"]: db[rows], names["v"]: dv[rows]})
    return float(np.mean(resid * resid)), grads


LOSS_KINDS = ("nll", "minimax-reward", "minimax-behavior", "squared-td")


# ---------------------------------------------------------------------------
# parameter plumbing: SGD, init, checkpoints


def named_tensors(params) -> dict[str, np.ndarray]:
    """Live name -> array views of a parameter container."""
    if isinstance(params, PositionWeightParams):
        return {"W": params.W, "B": params.B}
    if isinstance(params, ScorerParams):
        return {"V": params.V, "b": params.b, "v": params.v}
    if isinstance(params, ScorerNet):
        return {**named_tensors(params.pw), **named_tensors(params.head)}
    if isinstance(params, CascadeQNet):
        out = named_tensors(params.pw)
        for j, head in enumerate(params.heads, start=1):
            out.update({name: getattr(head, attr) for attr, name in cascade_head_names(j).items()})
        return out
    raise TypeError(f"no tensor registry for {type(params).__name__}")


def sgd_step(params, grads: dict[str, np.ndarray], learning_rate: float, ascend: bool = False):
    """In-place SGD update p <- p -/+ lr * g of each gradient, keyed as named_tensors(params);
    returns params."""
    tensors = named_tensors(params)
    sign = 1.0 if ascend else -1.0
    for name, g in grads.items():
        if name not in tensors:
            raise KeyError(f"gradient {name!r} has no matching parameter")
        t = tensors[name]
        if t.shape != g.shape:
            raise ValueError(f"shape mismatch for {name}: {t.shape} vs {g.shape}")
        t += sign * learning_rate * g
    return params


def _uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan = shape[0] + (shape[1] if len(shape) > 1 else 1)
    s = np.sqrt(6.0 / fan)
    return rng.uniform(-s, s, size=shape)


def init_position_weight(d: int, m: int, n: int, rng: np.random.Generator) -> PositionWeightParams:
    return PositionWeightParams(W=_uniform(rng, (m, n)), B=_uniform(rng, (d, n)))


def init_scorer_head(in_dim: int, hidden: int, rng: np.random.Generator) -> ScorerParams:
    return ScorerParams(V=_uniform(rng, (hidden, in_dim)), b=_uniform(rng, (hidden,)),
                        v=_uniform(rng, (hidden,)))


def init_scorer_net(d: int, m: int, n: int, hidden: int, rng: np.random.Generator) -> ScorerNet:
    net = init_cascade_net(d, m, n, hidden, 1, rng)  # the same draws: the embedding, then one head
    return ScorerNet(pw=net.pw, head=net.heads[0])


def init_cascade_net(d: int, m: int, n: int, hidden: int, k: int, rng: np.random.Generator) -> CascadeQNet:
    pw = init_position_weight(d, m, n, rng)
    heads = [init_scorer_head(pw.head_inputs(j), hidden, rng) for j in range(1, k + 1)]
    return CascadeQNet(pw=pw, heads=heads)


# ---------------------------------------------------------------------------
# checkpoint files: versioned text, row-major values, exact round trip

_CKPT_HEADER = "ckpt v1"
# the activation every checkpoint records, act's ELU; a loader refuses any other
ACTIVATION = "elu"


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    lines = [_CKPT_HEADER]
    for key, val in (meta or {}).items():
        lines.append(f"meta {key} {val}")
    for name, t in tensors.items():
        t = np.asarray(t, dtype=float)
        dims = " ".join(str(s) for s in t.shape)
        lines.append(f"tensor {name} {t.ndim} {dims}".rstrip())
        lines.append(" ".join(format(x, ".17g") for x in t.reshape(-1)))
    write_lines(path, lines)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """A checkpoint's tensors and meta; malformed content raises ValueError naming the file and line."""
    lines = read_lines(path)
    if not lines or lines[0] != _CKPT_HEADER:
        raise ValueError(f"{path}: not a checkpoint file")
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    i = 1
    try:
        while i < len(lines):
            line = lines[i]
            if line.startswith("meta "):
                _, key, val = line.split(" ", 2)
                meta[key] = val
                i += 1
            elif line.startswith("tensor "):
                _, name, ndim, *dims = line.split()
                shape = tuple(int(x) for x in dims)
                vals = lines[i + 1].split() if i + 1 < len(lines) else []
                if len(shape) != int(ndim) or len(vals) != np.prod(shape):
                    raise ValueError(f"tensor {name!r} of shape {shape} has {len(vals)} values")
                tensors[name] = np.array([float(x) for x in vals]).reshape(shape)
                i += 2
            elif not line.strip():
                i += 1
            else:
                raise ValueError(f"unexpected line {line!r}")
    except ValueError as exc:
        raise ValueError(f"{path}:{i + 1}: {exc}") from None
    return tensors, meta


def save_checkpoint(path, kind: str, meta: dict[str, str], parts: dict[str, ScorerNet | CascadeQNet]) -> None:
    """A `kind` checkpoint: `meta` in order, then each net of `parts`' named_tensors under its prefix."""
    save_tensors(path, {prefix + name: t for prefix, net in parts.items()
                        for name, t in named_tensors(net).items()}, {"kind": kind, **meta})


def load_checkpoint(path, kind: str, parts: dict[str, type], build: Callable, **run: int):
    """build(meta, *nets) of the `kind` checkpoint at `path`: a net of each type of `parts`, from the
    tensors under its prefix. Another kind or activation, a missing entry, a head j not pw.head_inputs(j)
    wide, a meta value `build` refuses, a first net unlike `run` (check_fits), a meta d, m, n or hidden
    unlike the first net's or a tensor no net reads raise ValueError naming it."""
    tensors, meta = load_tensors(path)
    if meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} checkpoint")
    try:
        if meta["activation"] != ACTIVATION:
            raise ValueError(f"activation {meta['activation']!r} is not supported, only {ACTIVATION!r}")
        loaded = []
        for prefix, net in parts.items():  # a CascadeQNet has meta k heads; a ScorerNet one, V b v
            k = int(meta["k"]) if net is CascadeQNet else None
            layouts = ([dict(V="V", b="b", v="v")] if k is None
                       else [cascade_head_names(j) for j in range(1, k + 1)])
            pw = PositionWeightParams(W=tensors[prefix + "W"], B=tensors[prefix + "B"])
            heads = [ScorerParams(**{attr: tensors[prefix + name] for attr, name in names.items()})
                     for names in layouts]
            for j, (head, names) in enumerate(zip(heads, layouts), start=1):  # head j reads [s; f_1 .. f_j]
                if head.V.shape[1:] != (pw.head_inputs(j),):
                    raise ValueError(f"tensor {prefix}{names['V']} of shape {head.V.shape} needs d*n + "
                                     f"{'d' if k is None else f'{j}*d'} = {pw.head_inputs(j)} columns")
            loaded.append(ScorerNet(pw, heads[0]) if k is None else CascadeQNet(pw, heads))
        built = build(meta, *loaded)
    except KeyError as exc:
        raise ValueError(f"{path}: missing entry {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    check_fits(path, loaded[0], **run)
    first = loaded[0]  # the meta d, m, n and hidden that are present must be its tensors'
    hidden = (first.heads[0] if isinstance(first, CascadeQNet) else first.head).v.shape[0]
    have = {"d": first.pw.d, "m": first.pw.m, "n": first.pw.n, "hidden": hidden}
    wrong = [f"meta {name} {meta[name]} where its tensors have {name}={value}"
             for name, value in have.items() if meta.get(name, str(value)) != str(value)]
    read = {prefix + name for prefix, net in zip(parts, loaded) for name in named_tensors(net)}
    wrong += [f"tensor {name!r} that no net reads" for name in tensors if name not in read]
    if wrong:
        raise ValueError(f"{path}: {', '.join(wrong)}")
    return built


def check_fits(path, net: ScorerNet | CascadeQNet, **run: int) -> None:
    """Refuse the checkpoint at `path` when its net's k, d or m differs from the `run` value of that name."""
    have = {"k": getattr(net, "k", None), "d": net.pw.d, "m": net.pw.m}
    wrong = [f"{name}={have[name]} where the run has {name}={want}"
             for name, want in run.items() if have[name] != want]
    if wrong:
        raise ValueError(f"{path} does not fit the run: {', '.join(wrong)}")


# ---------------------------------------------------------------------------
# finite-difference oracle used by tests and the gradcheck command


def finite_difference_grad(loss_fn: Callable[[], float], params, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn() w.r.t. every parameter coordinate."""
    out = {}
    for name, t in named_tensors(params).items():
        g = np.zeros_like(t)
        for idx in np.ndindex(t.shape):
            orig = t[idx]
            t[idx] = orig + h
            up = loss_fn()
            t[idx] = orig - h
            down = loss_fn()
            t[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        out[name] = g
    return out


def _rel_err(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    worst = 0.0
    for name, g in analytic.items():
        fd = numeric[name]
        denom = np.maximum(1.0, np.abs(g) + np.abs(fd))
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    return worst


def run_gradient_check(seed: int = 0, trials: int = 100, dims_max: int = 6, h: float = 1e-5) -> float:
    """Compare every analytic gradient against central differences on random instances.

    Cycles through the four loss kinds; the regularizer of the two minimax kinds
    alternates every full cycle, so each (minimax kind, regularizer) pair occurs.
    Returns the worst relative error seen."""
    for name, value in (("trials", trials), ("dims_max", dims_max)):
        if value < 1:  # else a check of nothing passes, or the dimension draw fails
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d, m, n, hid = (int(rng.integers(1, dims_max + 1)) for _ in range(4))
        batch, slots = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        eta = float(rng.uniform(0.5, 2.0))
        F = rng.standard_normal((batch, d, m))
        feats = rng.standard_normal((batch, slots, d))
        kind = LOSS_KINDS[trial % len(LOSS_KINDS)]
        reg = list(Regularizer)[(trial // len(LOSS_KINDS)) % len(Regularizer)]
        if kind == "squared-td":
            scale = k = int(rng.integers(1, 4))  # td_value_and_grad's gradient is of k times its value
            net = init_cascade_net(d, m, n, hid, k, rng)
            fn, rest = td_value_and_grad, (rng.standard_normal((batch, k, d)), rng.standard_normal(batch))
        else:
            scale, net = 1, init_scorer_net(d, m, n, hid, rng)
            chosen = rng.integers(0, slots, size=batch)
            if kind == "nll":
                fn, rest = nll_value_and_grad, (chosen, eta)
            elif kind == "minimax-reward":
                raw = rng.random((batch, slots))
                phi = raw / raw.sum(axis=1, keepdims=True)
                fn, rest = minimax_reward_value_and_grad, (chosen, phi, eta, reg)
            else:
                fn, rest = minimax_behavior_value_and_grad, (rng.standard_normal((batch, slots)), eta, reg)

        def loss():  # the TD loss runs its own forward; the scorer losses take scorer_batch's
            return fn(net, F if kind == "squared-td" else scorer_batch(net, F, feats), *rest)
        analytic = loss()[1]
        worst = max(worst, _rel_err(analytic, finite_difference_grad(lambda: scale * loss()[0], net, h=h)))
    return worst
