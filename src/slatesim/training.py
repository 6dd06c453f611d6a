"""User-model estimation from click logs: maximum likelihood and adversarial alternation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import nets
from .choice import ChoiceConfig, PROB_FLOOR, Regularizer, logsumexp, softmax
from .data import HistoryBuffer, ItemCatalog, Trajectory
from .nets import Activation, GradientBundle, ScorerNet


class InitScheme(Enum):
    FRESH = "fresh"
    ENTROPY_INIT = "entropy"


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, message: str = "training diverged (non-finite loss)"):
        super().__init__(f"{message} at epoch {epoch}")
        self.epoch = epoch


class OscillationWarning(UserWarning):
    pass


# train_minimax warns once when the theta objective's variance over the last
# OSCILLATION_WINDOW updates exceeds OSCILLATION_THRESHOLD.
OSCILLATION_WINDOW = 50
OSCILLATION_THRESHOLD = 5.0


@dataclass
class TrainConfig:
    eta: float = 1.0
    lr_alpha: float = 0.05
    lr_theta: float = 0.05
    batch_size: int = 64
    epochs: int = 50
    regularizer: Regularizer = Regularizer.SHANNON_ENTROPY
    init_scheme: InitScheme = InitScheme.FRESH
    seed: int = 0
    # architecture
    m: int = 5
    n: int = 4
    hidden: int = 16
    # optimization details
    shuffle: bool = True
    patience: int = 10
    exact_inner: bool = False
    init_epochs: int | None = None

    def __post_init__(self):
        if self.eta <= 0 or self.lr_alpha < 0 or self.lr_theta < 0:
            raise ValueError("eta must be positive; learning rates non-negative")
        if self.batch_size < 1 or self.epochs < 0 or self.patience < 1:
            raise ValueError("batch_size >= 1, epochs >= 0, patience >= 1 required")
        if self.m < 1 or self.n < 1 or self.hidden < 1:
            raise ValueError("architecture dims must be >= 1")


@dataclass
class UserModel:
    """Reward scorer, behavior scorer, and the choice rule tying them together."""

    theta: ScorerNet
    alpha: ScorerNet
    config: ChoiceConfig

    def __post_init__(self):
        if self.alpha is not None:
            if (self.theta.pw.d, self.theta.pw.m) != (self.alpha.pw.d, self.alpha.pw.m):
                raise ValueError("theta and alpha disagree on feature dim or history length")

    @property
    def m(self) -> int:
        return self.theta.pw.m

    @property
    def d(self) -> int:
        return self.theta.pw.d


@dataclass(frozen=True)
class Example:
    """One page view prepared for training: teacher-forced history and display features.

    `disp` rows are the displayed items' features; when the non-click slot is
    included it is the all-zero final row. `chosen` indexes into `disp`."""

    hist: np.ndarray
    disp: np.ndarray
    chosen: int
    n_items: int

    @property
    def clicked(self) -> bool:
        return self.chosen < self.n_items


def build_examples(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory],
    m: int,
    include_nonclick: bool = True,
) -> list[Example]:
    """Convert trajectories into examples; histories are taken from the observed clicks."""
    examples = []
    for traj in trajectories:
        buf = HistoryBuffer(m, catalog.d)
        for rec in traj.records:
            feats = catalog.feature_matrix(rec.displayed)
            if include_nonclick:
                feats = np.vstack([feats, np.zeros((1, catalog.d))])
            if rec.clicked:
                slot = rec.displayed.index(rec.chosen)
            elif include_nonclick:
                slot = len(rec.displayed)
            else:
                raise ValueError("non-click record cannot be represented without the non-click slot")
            examples.append(Example(hist=buf.matrix.copy(), disp=feats,
                                    chosen=slot, n_items=len(rec.displayed)))
            if rec.clicked:
                buf.push(catalog.features(rec.chosen))
    return examples


def _batch_groups(examples: Sequence[Example]):
    """Group examples by slot count so each group stacks into dense arrays."""
    groups: dict[int, list[Example]] = {}
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


def _weighted(parts):
    """Combine (count, value, bundle) group results into one mean value and bundle."""
    total_n = sum(n for n, _, _ in parts)
    value = 0.0
    bundle: GradientBundle | None = None
    for n, v, g in parts:
        value += v * n / total_n
        g.scale_(n / total_n)
        bundle = g if bundle is None else bundle.add_(g)
    return value, bundle


def nll_value_grad(theta: ScorerNet, examples: Sequence[Example], eta: float):
    if not examples:
        raise ValueError("empty batch")
    parts = [(n,) + nets.nll_value_and_grad(theta, F, feats, chosen, eta)
             for n, F, feats, chosen in _batch_groups(examples)]
    return _weighted(parts)


def nll_loss(theta: ScorerNet, examples: Sequence[Example], eta: float) -> float:
    """Mean per-record negative log-likelihood under softmax(eta * reward)."""
    if not examples:
        raise ValueError("empty batch")
    value = 0.0
    for n, F, feats, chosen in _batch_groups(examples):
        logits = eta * nets.scorer_batch(theta, F, feats).scores
        value += float(np.sum(logsumexp(logits) - logits[np.arange(n), chosen]))
    return value / len(examples)


def induced_softmax_alpha(theta: ScorerNet, eta: float) -> ScorerNet:
    """Behavior net whose softmax equals the closed-form entropy choice of theta's rewards."""
    alpha = nets.clone_params(theta)
    alpha.head.v = alpha.head.v * eta
    return alpha


def behavior_probs(alpha: ScorerNet, F: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax of the behavior logits, one row per record."""
    return softmax(nets.scorer_batch(alpha, F, feats).scores)


def minimax_objective(theta: ScorerNet, alpha: ScorerNet | None, examples: Sequence[Example],
                      eta: float, regularizer: Regularizer, exact_inner: bool = False) -> float:
    """Mean per-record adversarial objective  <phi, r> - R(phi)/eta - r_true.

    With exact_inner=True the inner maximization is solved in closed form
    (entropy: log-sum-exp; L2: simplex projection) instead of using alpha."""
    if not examples:
        raise ValueError("empty batch")
    total = 0.0
    for n, F, feats, chosen in _batch_groups(examples):
        r = nets.scorer_batch(theta, F, feats).scores
        if exact_inner:
            inner = regularizer.inner_max(r, eta)
        else:
            phi = behavior_probs(alpha, F, feats)
            inner = np.sum(phi * r, axis=1) - regularizer.omega(phi) / eta
        total += float(np.sum(inner - r[np.arange(n), chosen]))
    return total / len(examples)


def model_choice_probs(model: UserModel, hist: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """The model's choice distribution over one display (rows of `disp`)."""
    s = nets.embed_history(hist, model.theta.pw)
    rewards = nets.head_scores(model.theta.head, s, disp)
    return model.config.regularizer.probs(rewards, model.config.eta)


def _reward_scores(theta: ScorerNet, examples: Sequence[Example],
                   transform: Callable[[np.ndarray], np.ndarray] | None = None) -> list[np.ndarray]:
    """Per-example reward score rows, in the original example order.

    `transform`, if given, maps each slot-count group's (records, slots) score block first."""
    order: list[tuple[int, np.ndarray]] = []
    groups: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        groups.setdefault(ex.disp.shape[0], []).append(i)
    for slots in sorted(groups):
        idxs = groups[slots]
        F = np.stack([examples[i].hist for i in idxs])
        feats = np.stack([examples[i].disp for i in idxs])
        scores = nets.scorer_batch(theta, F, feats).scores
        if transform is not None:
            scores = transform(scores)
        order.extend(zip(idxs, scores))
    order.sort(key=lambda t: t[0])
    return [s for _, s in order]


def precision_at_k(model: UserModel, examples: Sequence[Example], k_eval: int) -> float:
    """Fraction of clicked page views whose true item ranks in the model's top k_eval."""
    clicks = [ex for ex in examples if ex.clicked]
    if not clicks:
        raise ValueError("no clicked records to evaluate")
    if k_eval < 1 or any(ex.n_items < k_eval for ex in clicks):
        raise ValueError("k_eval must be within the display size")
    scores = _reward_scores(model.theta, clicks)
    hits = 0
    for ex, row in zip(clicks, scores):
        item_scores = row[: ex.n_items]
        top = np.argsort(-item_scores, kind="stable")[:k_eval]
        hits += int(ex.chosen in top)
    return hits / len(clicks)


def heldout_loglik(model: UserModel, examples: Sequence[Example]) -> float:
    """Mean log-probability of the true choices under the model's choice distribution."""
    if not examples:
        raise ValueError("empty evaluation set")
    reg, eta = model.config.regularizer, model.config.eta
    probs = _reward_scores(model.theta, examples, lambda r: reg.probs(r, eta))
    p = np.array([row[ex.chosen] for ex, row in zip(examples, probs)])
    clamped = int(np.count_nonzero(p < PROB_FLOOR))
    logs = np.log(np.maximum(p, PROB_FLOOR))
    if clamped:
        warnings.warn(f"{clamped} record(s) had zero model probability; clamped to {PROB_FLOOR}")
    return float(np.mean(logs))


def _batches(n: int, batch_size: int, rng: np.random.Generator, shuffle: bool):
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _snapshot(net: ScorerNet) -> dict[str, np.ndarray]:
    return {name: t.copy() for name, t in nets.named_tensors(net).items()}


def _restore(net: ScorerNet, snap: dict[str, np.ndarray]) -> None:
    for name, t in nets.named_tensors(net).items():
        t[...] = snap[name]


def train_mle(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory],
    config: TrainConfig,
    valid: Sequence[Trajectory] | None = None,
    on_epoch: Callable[[int, dict], None] | None = None,
) -> UserModel:
    """Fit the reward scorer by maximum likelihood; the behavior net is its induced softmax.

    Keeps the best-validation snapshot and stops early after `config.patience`
    epochs without improvement. Raises TrainingDiverged on non-finite loss."""
    if config.regularizer is not Regularizer.SHANNON_ENTROPY:
        raise ValueError("maximum-likelihood training requires the entropy regularizer")
    rng = np.random.default_rng(config.seed)
    theta = nets.init_scorer_net(catalog.d, config.m, config.n, config.hidden, rng)
    examples = build_examples(catalog, trajectories, config.m)
    if not examples:
        raise ValueError("no training records")
    valid_examples = build_examples(catalog, valid, config.m) if valid else None

    def metric() -> float:
        return nll_loss(theta, valid_examples if valid_examples else examples, config.eta)

    best_value = metric()
    best_snap = _snapshot(theta)
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        for idx in _batches(len(examples), config.batch_size, rng, config.shuffle):
            value, g = nll_value_grad(theta, [examples[i] for i in idx], config.eta)
            if not np.isfinite(value):
                raise TrainingDiverged(epoch)
            nets.sgd_step(theta, g, config.lr_theta)
        current = metric()
        if not np.isfinite(current):
            raise TrainingDiverged(epoch)
        if current < best_value:
            best_value = current
            best_snap = _snapshot(theta)
            best_epoch = epoch
        if on_epoch is not None:
            train_nll = nll_loss(theta, examples, config.eta)
            stats = {"train_nll": train_nll, "valid_nll": current}
            eval_set = valid_examples if valid_examples else examples
            if any(ex.clicked for ex in eval_set):
                probe = UserModel(theta, theta, ChoiceConfig(config.eta, config.regularizer))
                stats["prec1"] = precision_at_k(probe, eval_set, 1)
            on_epoch(epoch, stats)
        if epoch - best_epoch >= config.patience:
            break
    _restore(theta, best_snap)
    alpha = induced_softmax_alpha(theta, config.eta)
    return UserModel(theta=theta, alpha=alpha,
                     config=ChoiceConfig(config.eta, Regularizer.SHANNON_ENTROPY))


def minimax_value_grads(theta: ScorerNet, alpha: ScorerNet | None,
                        examples: Sequence[Example], config: TrainConfig):
    """One alternating update's ingredients on a minibatch.

    Returns (theta objective value, theta bundle, alpha bundle or None). The
    expectation over the generator is an exact sum over display slots."""
    groups = _batch_groups(examples)
    theta_parts = []
    alpha_parts = []
    for n, F, feats, chosen in groups:
        r = nets.scorer_batch(theta, F, feats).scores
        if config.exact_inner:
            if config.regularizer is not Regularizer.SHANNON_ENTROPY:
                raise ValueError("exact inner maximization is closed-form only for entropy")
            phi = config.regularizer.probs(r, config.eta)
        else:
            va, ga = nets.minimax_behavior_value_and_grad(
                alpha, F, feats, r, config.eta, config.regularizer)
            alpha_parts.append((n, va, ga))
            phi = behavior_probs(alpha, F, feats)
        vt, gt = nets.minimax_reward_value_and_grad(
            theta, F, feats, chosen, phi, config.eta, config.regularizer)
        theta_parts.append((n, vt, gt))
    theta_value, theta_bundle = _weighted(theta_parts)
    alpha_bundle = _weighted(alpha_parts)[1] if alpha_parts else None
    return theta_value, theta_bundle, alpha_bundle


def train_minimax(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory],
    config: TrainConfig,
    valid: Sequence[Trajectory] | None = None,
    on_epoch: Callable[[int, dict], None] | None = None,
) -> UserModel:
    """Alternating adversarial estimation of the reward and behavior scorers.

    Ascends the behavior objective and descends the reward objective once per
    minibatch, and warns with OscillationWarning when the reward objective
    oscillates. With init_scheme=ENTROPY_INIT the entropy model is trained
    first and both scorers start from it."""
    rng = np.random.default_rng(config.seed)
    if config.init_scheme is InitScheme.ENTROPY_INIT:
        mle_config = replace(config, regularizer=Regularizer.SHANNON_ENTROPY,
                             init_scheme=InitScheme.FRESH, exact_inner=False,
                             epochs=config.init_epochs if config.init_epochs is not None else config.epochs)
        base = train_mle(catalog, trajectories, mle_config, valid=valid)
        theta = nets.clone_params(base.theta)
        alpha = nets.clone_params(base.alpha)
    else:
        theta = nets.init_scorer_net(catalog.d, config.m, config.n, config.hidden, rng)
        alpha = nets.init_scorer_net(catalog.d, config.m, config.n, config.hidden, rng)
    examples = build_examples(catalog, trajectories, config.m)
    if not examples:
        raise ValueError("no training records")
    valid_examples = build_examples(catalog, valid, config.m) if valid else None

    def metric() -> float:
        probe = UserModel(theta, alpha, ChoiceConfig(config.eta, config.regularizer))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return -heldout_loglik(probe, valid_examples if valid_examples else examples)

    best_value = metric()
    best_theta, best_alpha = _snapshot(theta), _snapshot(alpha)
    best_epoch = 0
    recent: list[float] = []
    warned = False
    for epoch in range(1, config.epochs + 1):
        for idx in _batches(len(examples), config.batch_size, rng, config.shuffle):
            batch = [examples[i] for i in idx]
            if not config.exact_inner:
                _, _, alpha_bundle = minimax_value_grads(theta, alpha, batch, config)
                nets.sgd_step(alpha, alpha_bundle, config.lr_alpha, ascend=True)
            value, theta_bundle, _ = minimax_value_grads(theta, alpha, batch, config)
            if not np.isfinite(value):
                raise TrainingDiverged(epoch)
            nets.sgd_step(theta, theta_bundle, config.lr_theta)
            recent.append(value)
        if len(recent) >= OSCILLATION_WINDOW and not warned:
            window = np.array(recent[-OSCILLATION_WINDOW:])
            if float(np.var(window)) > OSCILLATION_THRESHOLD:
                warnings.warn(
                    f"objective variance {np.var(window):.3g} over the last "
                    f"{OSCILLATION_WINDOW} updates exceeds {OSCILLATION_THRESHOLD}",
                    OscillationWarning)
                warned = True
        current = metric()
        if not np.isfinite(current):
            raise TrainingDiverged(epoch)
        if current < best_value:
            best_value = current
            best_theta, best_alpha = _snapshot(theta), _snapshot(alpha)
            best_epoch = epoch
        if on_epoch is not None:
            stats = {"objective": minimax_objective(theta, alpha, examples, config.eta,
                                                    config.regularizer, config.exact_inner),
                     "valid_nll": current}
            on_epoch(epoch, stats)
        if epoch - best_epoch >= config.patience:
            break
    _restore(theta, best_theta)
    _restore(alpha, best_alpha)
    if config.exact_inner:
        alpha = induced_softmax_alpha(theta, config.eta)
    return UserModel(theta=theta, alpha=alpha,
                     config=ChoiceConfig(config.eta, config.regularizer))


# ---------------------------------------------------------------------------
# model checkpoints


def save_user_model(path, model: UserModel, extra_meta: dict[str, str] | None = None) -> None:
    tensors = {}
    for prefix, net in (("theta", model.theta), ("alpha", model.alpha)):
        for name, t in nets.named_tensors(net).items():
            tensors[f"{prefix}_{name}"] = t
    meta = {
        "kind": "user_model",
        "eta": format(model.config.eta, ".17g"),
        "regularizer": model.config.regularizer.value,
        "activation": model.theta.pw.activation.value,
        "d": str(model.d),
        "m": str(model.m),
        "n": str(model.theta.pw.n),
        "hidden": str(model.theta.head.v.shape[0]),
    }
    if extra_meta:
        meta.update(extra_meta)
    nets.save_tensors(path, tensors, meta)


def load_user_model(path) -> UserModel:
    tensors, meta = nets.load_tensors(path)
    if meta.get("kind") != "user_model":
        raise ValueError(f"{path}: not a user-model checkpoint")
    activation = Activation(meta["activation"])

    def scorer(prefix: str) -> ScorerNet:
        pw = nets.PositionWeightParams(W=tensors[f"{prefix}_W"], B=tensors[f"{prefix}_B"],
                                       activation=activation)
        head = nets.ScorerParams(V=tensors[f"{prefix}_V"], b=tensors[f"{prefix}_b"],
                                 v=tensors[f"{prefix}_v"], activation=activation)
        return ScorerNet(pw=pw, head=head)

    config = ChoiceConfig(eta=float(meta["eta"]), regularizer=Regularizer(meta["regularizer"]))
    return UserModel(theta=scorer("theta"), alpha=scorer("alpha"), config=config)
