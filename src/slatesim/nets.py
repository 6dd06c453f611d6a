"""Shallow parameterized scorers with exact hand-derived gradients.

Every network is a position-weighted history embedding feeding scorer heads:
  * state embedding  s = vec[act(F @ W + B)]  with F the d x m click history,
  * scorer head  v' act(V [s; f] + b), scoring one "item" input f against s.

The reward and behavior models are one head each, with f an item's features.
The slate value model has one head per slate position: head j is a plain
scorer head whose item input is the concatenated prefix [f_1; ...; f_j], so
every head, cascade or not, runs the same forward and backward pass.

Gradients for the supported losses (NLL, the two adversarial updates, squared
TD error) are computed analytically, including backprop through the embedding.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .choice import Regularizer, logsumexp, softmax


def act(z: np.ndarray) -> np.ndarray:
    """ELU, every network's activation: max(z, expm1(min(z, 0))) in one fresh buffer. It and
    act_grad's exp(min(z, 0)) are bit for bit the np.where(z > 0, ...) forms, and faster."""
    out = np.minimum(z, 0.0)
    return np.maximum(z, np.expm1(out, out=out), out=out)


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


def head_scores(head: ScorerParams, state: np.ndarray, feats: np.ndarray, pre: bool = False):
    """Scores of each row of `feats` (slots, d) against one state vector (dn,).

    Batched: state (batch, dn) and feats (batch, slots, d) give (batch, slots).
    With `pre`, returns the pre-activation z, act(z) and the scores, which the
    backward pass reuses."""
    state = np.asarray(state, dtype=float)
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    d = feats.shape[-1]
    dn = head.V.shape[1] - d
    if state.shape != feats.shape[:-2] + (dn,):
        raise ValueError(f"state shape {state.shape} incompatible with head input "
                         f"{head.V.shape[1]} and item features {feats.shape}")
    # in-place sums: this is the cascade argmax's inner call
    z = (feats.reshape(-1, d) @ head.V[:, dn:].T).reshape(feats.shape[:-1] + (head.V.shape[0],))
    if state.ndim == 1:
        z += head.V[:, :dn] @ state
    else:
        z += (state @ head.V[:, :dn].T)[..., None, :]
    z += head.b
    h = act(z)
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


def scorer_batch_grad(net: ScorerNet, cache: _ScorerCache, slot_w: np.ndarray) -> "GradientBundle":
    """Gradient of sum_{b,s} slot_w[b,s] * score[b,s] w.r.t. all net parameters."""
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
    dZe = ds.reshape(batch, n, d).transpose(0, 2, 1) * act_grad(cache.Ze)
    dW = cache.F.reshape(-1, net.pw.m).T @ dZe.reshape(-1, n)
    dB = dZe.sum(axis=0)
    return GradientBundle({"W": dW, "B": dB, "V": np.concatenate([dVs, dVf], axis=1), "b": db, "v": dv})


# ---------------------------------------------------------------------------
# losses and their exact gradients


def nll_value_and_grad(net: ScorerNet, F, feats, chosen, eta: float):
    """Mean negative log-likelihood of the observed choices under softmax(eta * scores)."""
    chosen = np.asarray(chosen, dtype=int)
    cache = scorer_batch(net, F, feats)
    logits = eta * cache.scores
    batch = logits.shape[0]
    rows = np.arange(batch)
    value = float(np.mean(logsumexp(logits) - logits[rows, chosen]))
    w = softmax(logits)
    w[rows, chosen] -= 1.0
    w *= eta / batch
    return value, scorer_batch_grad(net, cache, w)


def minimax_reward_value_and_grad(net: ScorerNet, F, feats, chosen, phi: np.ndarray,
                                  eta: float, regularizer: Regularizer):
    """Adversarial update for the reward scorer, with the generator phi held fixed.

    Value is the mean per-record objective  <phi, r> - R(phi)/eta - r_true;
    the gradient descends it (phi is a constant here)."""
    chosen = np.asarray(chosen, dtype=int)
    cache = scorer_batch(net, F, feats)
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


def minimax_behavior_value_and_grad(net: ScorerNet, F, feats, rewards: np.ndarray,
                                    eta: float, regularizer: Regularizer):
    """Generator objective  <phi_alpha, r> - R(phi_alpha)/eta  with rewards held fixed.

    phi_alpha is the softmax of the behavior logits; the returned gradient is of
    the mean objective w.r.t. the behavior parameters (caller ascends)."""
    cache = scorer_batch(net, F, feats)
    phi = softmax(cache.scores)
    value = float(np.mean(np.sum(phi * rewards, axis=1) - regularizer.omega(phi) / eta))
    g = rewards - regularizer.omega_grad(phi) / eta
    w = phi * (g - np.sum(phi * g, axis=1, keepdims=True))
    w /= cache.scores.shape[0]
    return value, scorer_batch_grad(net, cache, w)


def td_value_and_grad(qnet: CascadeQNet, j: int, F, slot_feats: np.ndarray, targets: np.ndarray):
    """Mean squared TD error of Q = the sum over display slots of head j's scores,
    against fixed targets.

    slot_feats: (batch, slots, j * d), one input of head j per slot. The cascade
    regresses head j on one slot holding the prefix [f_1; ...; f_j]; the additive
    baseline regresses head 1 on its k one-item slots."""
    batch, slots, width = slot_feats.shape
    if width != j * qnet.pw.d:
        raise ValueError(f"expected {j} item vectors of {qnet.pw.d} features per slot, "
                         f"got {width} features")
    view = ScorerNet(pw=qnet.pw, head=qnet.heads[j - 1])
    cache = scorer_batch(view, np.asarray(F, dtype=float), slot_feats)
    resid = cache.scores.sum(axis=1) - np.asarray(targets, dtype=float)
    value = float(np.mean(resid * resid))
    g = scorer_batch_grad(view, cache, np.repeat((2.0 * resid / batch)[:, None], slots, axis=1))
    names = cascade_head_names(j)
    return value, GradientBundle({names.get(name, name): t for name, t in g.grads.items()})


LOSS_KINDS = ("nll", "minimax-reward", "minimax-behavior", "squared-td")


# ---------------------------------------------------------------------------
# parameter plumbing: bundles, SGD, init, checkpoints


@dataclass
class GradientBundle:
    """Named gradient arrays, shape-congruent with the parameters they address."""

    grads: dict[str, np.ndarray] = field(default_factory=dict)

    def add_(self, other: "GradientBundle") -> "GradientBundle":
        for name, g in other.grads.items():
            if name in self.grads:
                self.grads[name] = self.grads[name] + g
            else:
                self.grads[name] = g.copy()
        return self

    def scale_(self, a: float) -> "GradientBundle":
        for name in self.grads:
            self.grads[name] = self.grads[name] * a
        return self


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


def sgd_step(params, bundle: GradientBundle, learning_rate: float, ascend: bool = False):
    """In-place SGD update p <- p -/+ lr * g; returns params."""
    tensors = named_tensors(params)
    sign = 1.0 if ascend else -1.0
    for name, g in bundle.grads.items():
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
    pw = init_position_weight(d, m, n, rng)
    head = init_scorer_head(d * n + d, hidden, rng)
    return ScorerNet(pw=pw, head=head)


def init_cascade_net(d: int, m: int, n: int, hidden: int, k: int, rng: np.random.Generator) -> CascadeQNet:
    pw = init_position_weight(d, m, n, rng)
    heads = [init_scorer_head(d * n + d * j, hidden, rng) for j in range(1, k + 1)]
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """A checkpoint's tensors and meta; malformed content raises ValueError naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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


@contextmanager
def read_checkpoint(path, kind: str):
    """Yield the tensors and meta of the `kind` checkpoint at `path`; a missing entry,
    an activation other than ACTIVATION, or a value the `with` block cannot parse
    raises ValueError naming the file."""
    tensors, meta = load_tensors(path)
    if meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} checkpoint")
    try:
        if meta["activation"] != ACTIVATION:
            raise ValueError(f"activation {meta['activation']!r} is not supported, only {ACTIVATION!r}")
        yield tensors, meta
    except KeyError as exc:
        raise ValueError(f"{path}: missing entry {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
            k = int(rng.integers(1, 4))
            j = int(rng.integers(1, k + 1))
            qnet = init_cascade_net(d, m, n, hid, k, rng)
            slate = rng.standard_normal((batch, j, d))
            targets = rng.standard_normal(batch)
            slot = slate.reshape(batch, 1, -1)
            analytic = td_value_and_grad(qnet, j, F, slot, targets)[1]
            numeric = finite_difference_grad(
                lambda: td_value_and_grad(qnet, j, F, slot, targets)[0], qnet, h=h)
        else:
            net = init_scorer_net(d, m, n, hid, rng)
            chosen = rng.integers(0, slots, size=batch)
            if kind == "nll":
                analytic = nll_value_and_grad(net, F, feats, chosen, eta)[1]
                numeric = finite_difference_grad(
                    lambda: nll_value_and_grad(net, F, feats, chosen, eta)[0], net, h=h)
            elif kind == "minimax-reward":
                raw = rng.random((batch, slots))
                phi = raw / raw.sum(axis=1, keepdims=True)
                analytic = minimax_reward_value_and_grad(net, F, feats, chosen, phi, eta, reg)[1]
                numeric = finite_difference_grad(
                    lambda: minimax_reward_value_and_grad(net, F, feats, chosen, phi, eta, reg)[0],
                    net, h=h)
            else:
                rewards = rng.standard_normal((batch, slots))
                analytic = minimax_behavior_value_and_grad(net, F, feats, rewards, eta, reg)[1]
                numeric = finite_difference_grad(
                    lambda: minimax_behavior_value_and_grad(net, F, feats, rewards, eta, reg)[0],
                    net, h=h)
        worst = max(worst, _rel_err(analytic.grads, numeric))
    return worst
