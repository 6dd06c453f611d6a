"""User-model estimation from click logs: maximum likelihood and adversarial alternation."""

from __future__ import annotations

import copy
import operator
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import nets
from .choice import ChoiceConfig, PROB_FLOOR, Regularizer, logsumexp, softmax
from .data import NON_CLICK_ID, ItemCatalog, Trajectory
from .nets import ScorerNet


class InitScheme(Enum):
    FRESH = "fresh"
    ENTROPY_INIT = "entropy"


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


class OscillationWarning(UserWarning):
    pass


# With warn_oscillation (train_minimax), _fit warns once when the theta objective's
# variance over the last OSCILLATION_WINDOW updates exceeds OSCILLATION_THRESHOLD.
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
    patience: int = 10
    init_epochs: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        for name in ("lr_alpha", "lr_theta"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("batch_size", "patience", "m", "n", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class UserModel:
    """Reward scorer, behavior scorer, and the choice rule tying them together."""

    theta: ScorerNet
    alpha: ScorerNet
    config: ChoiceConfig

    def __post_init__(self):
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

    `disp` rows are the displayed items' features, then the all-zero non-click
    slot as the final row. `chosen` indexes into `disp`."""

    hist: np.ndarray
    disp: np.ndarray
    chosen: int
    n_items: int

    @property
    def clicked(self) -> bool:
        return self.chosen < self.n_items


class ExampleSet:
    """Page views stacked once into dense arrays, one row per page view.

    `hist` (N, d, m) holds the history windows and `disp` (N, S, d) the displays,
    each padded to the widest one by all-zero rows; `slots` (a display's rows: its
    items, then the non-click slot) and `chosen` are (N,) arrays. A set is the
    selection `rows` of them, in set order; `take(idx)` selects from it and shares
    the arrays. `len`, int indexing and iteration give read-only `Example` rows."""

    def __init__(self, hist: np.ndarray, disp: np.ndarray, slots: np.ndarray, chosen: np.ndarray,
                 rows: np.ndarray | None = None):
        self.hist, self.disp, self.slots, self.chosen = hist, disp, slots, chosen
        self.rows = np.arange(len(slots)) if rows is None else rows
        for a in (hist, disp):
            a.setflags(write=False)

    @classmethod
    def from_examples(cls, examples: Sequence[Example]) -> ExampleSet:
        slots = np.array([len(ex.disp) for ex in examples], dtype=int)
        bad = [i for i, ex in enumerate(examples) if ex.n_items != len(ex.disp) - 1]
        if bad:
            raise ValueError(f"example {bad[0]}: n_items is not its display's rows less the non-click slot")
        width = slots.max(initial=0)
        return cls(np.array([ex.hist for ex in examples]),
                   np.array([np.pad(ex.disp, ((0, width - len(ex.disp)), (0, 0))) for ex in examples]),
                   slots, np.array([ex.chosen for ex in examples], dtype=int))

    def take(self, idx) -> ExampleSet:
        return ExampleSet(self.hist, self.disp, self.slots, self.chosen,
                          self.rows[np.asarray(idx, dtype=int)])

    @property
    def clicked(self) -> np.ndarray:
        return self.chosen[self.rows] < self.slots[self.rows] - 1

    def blocks(self):
        """Per slot count, ascending: (positions, hist, disp, chosen) of the set's rows with
        that count, in set order, gathered into fresh arrays."""
        slots = self.slots[self.rows]
        for s in np.flatnonzero(np.bincount(slots)):  # distinct counts; np.unique sorts and imports numpy.ma
            pos = np.flatnonzero(slots == s)
            rows = self.rows[pos]
            yield pos, self.hist[rows], self.disp[rows, :s], self.chosen[rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i) -> Example:
        r = self.rows[operator.index(i)]
        return Example(hist=self.hist[r], disp=self.disp[r, :self.slots[r]],
                       chosen=int(self.chosen[r]), n_items=int(self.slots[r]) - 1)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _as_set(examples: ExampleSet | Sequence[Example]) -> ExampleSet:
    return examples if isinstance(examples, ExampleSet) else ExampleSet.from_examples(examples)


def build_examples(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory],
    m: int,
) -> ExampleSet:
    """Convert trajectories into examples; histories are taken from the observed clicks.

    One pass over the records collects item ids: a history is the window of the
    last m clicked ids, padded with the non-click pseudo-item, whose all-zero
    features also fill the non-click slot and pad each display to the widest.
    The features of all windows, then of all displays, are looked up at once."""
    windows, shown, chosen = [], [], []
    for traj in trajectories:
        window = (NON_CLICK_ID,) * m
        for rec in traj.records:
            windows.append(window)
            shown.append(rec.displayed)
            chosen.append(rec.displayed.index(rec.chosen) if rec.clicked else len(rec.displayed))
            if rec.clicked:
                window = window[1:] + (rec.chosen,)
    slots = np.array([len(ids) + 1 for ids in shown], dtype=int)  # the items, then the non-click slot
    width = slots.max(initial=1)
    ids = np.array([s + (NON_CLICK_ID,) * (width - len(s)) for s in shown], dtype=int)
    hist = catalog.feature_matrix(np.array(windows, dtype=int).reshape(len(windows), m))
    return ExampleSet(np.ascontiguousarray(hist.transpose(0, 2, 1)),
                      catalog.feature_matrix(ids.reshape(len(shown), width)),
                      slots, np.array(chosen, dtype=int))


def _weighted(parts):
    """Combine (count, value, grads) group results into one mean value and gradient dict:
    each group's tensors scaled by count / total, then summed in group order."""
    total_n = sum(n for n, _, _ in parts)
    value, grads = 0.0, {}
    for n, v, g in parts:
        value += v * n / total_n
        for name, t in g.items():
            t = t * (n / total_n)
            grads[name] = grads[name] + t if name in grads else t
    return value, grads


def _nonempty(examples: ExampleSet | Sequence[Example], message: str = "empty batch") -> ExampleSet:
    examples = _as_set(examples)
    if not len(examples):
        raise ValueError(message)
    return examples


def _theta_forward(theta: ScorerNet, examples: ExampleSet | Sequence[Example]):
    """Per slot-count block: (positions, chosen, theta's scorer_batch cache of its histories
    and displays). Every fit loss and metric reads theta's scores from here."""
    return [(pos, chosen, nets.scorer_batch(theta, F, feats))
            for pos, F, feats, chosen in _nonempty(examples).blocks()]


def nll_value_grad(theta: ScorerNet, examples: ExampleSet | Sequence[Example], eta: float):
    return _weighted([(len(pos),) + nets.nll_value_and_grad(theta, cache, chosen, eta)
                      for pos, chosen, cache in _theta_forward(theta, examples)])


def nll_loss(theta: ScorerNet, examples: ExampleSet | Sequence[Example], eta: float) -> float:
    """Mean per-record negative log-likelihood under softmax(eta * reward)."""
    examples = _nonempty(examples)
    value = 0.0
    for pos, chosen, cache in _theta_forward(theta, examples):
        logits = eta * cache.scores
        value += float(np.sum(logsumexp(logits) - logits[np.arange(len(pos)), chosen]))
    return value / len(examples)


def induced_softmax_alpha(theta: ScorerNet, eta: float) -> ScorerNet:
    """Behavior net whose softmax equals the closed-form entropy choice of theta's rewards."""
    alpha = copy.deepcopy(theta)
    alpha.head.v = alpha.head.v * eta
    return alpha


def behavior_probs(alpha: ScorerNet, F: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax of the behavior logits, one row per record."""
    return softmax(nets.scorer_batch(alpha, F, feats).scores)


def minimax_objective(theta: ScorerNet, alpha: ScorerNet | None,
                      examples: ExampleSet | Sequence[Example],
                      eta: float, regularizer: Regularizer, exact_inner: bool = False) -> float:
    """Mean per-record adversarial objective  <phi, r> - R(phi)/eta - r_true.

    With exact_inner=True the inner maximization is solved in closed form
    (entropy: log-sum-exp; L2: simplex projection) instead of using alpha."""
    examples = _nonempty(examples)
    total = 0.0
    for pos, chosen, cache in _theta_forward(theta, examples):
        r = cache.scores
        if exact_inner:
            inner = regularizer.inner_max(r, eta)
        else:
            phi = behavior_probs(alpha, cache.F, cache.feats)
            inner = np.sum(phi * r, axis=1) - regularizer.omega(phi) / eta
        total += float(np.sum(inner - r[np.arange(len(pos)), chosen]))
    return total / len(examples)


def model_choice_probs(model: UserModel, hist: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """The model's choice distribution over one display (rows of `disp`)."""
    s = nets.embed_history(hist, model.theta.pw)
    rewards = nets.head_scores(model.theta.head, s, disp)
    return model.config.regularizer.probs(rewards, model.config.eta)


def precision_at_k(model: UserModel, examples: ExampleSet | Sequence[Example], k_eval: int) -> float:
    """Fraction of clicked page views whose true item ranks in the model's top k_eval."""
    examples = _as_set(examples)
    clicks = examples.take(np.flatnonzero(examples.clicked))
    if not len(clicks):
        raise ValueError("no clicked records to evaluate")
    if k_eval < 1 or np.any(clicks.slots[clicks.rows] - 1 < k_eval):
        raise ValueError("k_eval must be within the display size")
    hits = 0
    for _, chosen, cache in _theta_forward(model.theta, clicks):  # a block's items: all slots but the last
        top = np.argsort(-cache.scores[:, :-1], axis=1, kind="stable")[:, :k_eval]
        hits += int(np.count_nonzero(top == chosen[:, None]))
    return hits / len(clicks)


def heldout_loglik(model: UserModel, examples: ExampleSet | Sequence[Example]) -> float:
    """Mean log-probability of the true choices under the model's choice distribution."""
    examples = _nonempty(examples, "empty evaluation set")
    reg, eta = model.config.regularizer, model.config.eta
    p = np.empty(len(examples))
    for pos, chosen, cache in _theta_forward(model.theta, examples):
        p[pos] = reg.probs(cache.scores, eta)[np.arange(len(pos)), chosen]
    clamped = int(np.count_nonzero(p < PROB_FLOOR))
    logs = np.log(np.maximum(p, PROB_FLOOR))
    if clamped:
        warnings.warn(f"{clamped} record(s) had zero model probability; clamped to {PROB_FLOOR}")
    return float(np.mean(logs))


def _fit_sets(catalog: ItemCatalog, trajectories: Sequence[Trajectory] | ExampleSet,
              valid: Sequence[Trajectory] | ExampleSet | None, m: int):
    """Training and validation examples; an ExampleSet passes through unchanged."""
    def examples(data):
        return data if isinstance(data, ExampleSet) else build_examples(catalog, data, m)

    train = examples(trajectories)
    if not len(train):
        raise ValueError("no training records")
    return train, (examples(valid) if valid else None)


def _fit(params: Sequence[ScorerNet], examples: ExampleSet, config: TrainConfig,
         rng: np.random.Generator,
         theta_grad: Callable[[ExampleSet], tuple[float, dict[str, np.ndarray]]],
         metric: Callable[[], float], stats: Callable[[float], dict],
         on_epoch: Callable[[int, dict], None] | None, warn_oscillation: bool = False) -> None:
    """The epoch loop of both estimators; `params` are the nets it trains, theta first.

    Each minibatch of an `rng` permutation gets `theta_grad(batch)`, the
    objective and theta's gradients, and one descent step on theta. After each
    epoch `metric()` (lower is better) is scored and `on_epoch(epoch,
    stats(metric))` told. The loop stops after `config.patience` epochs
    without improvement and restores every net to its best-metric snapshot.
    A non-finite objective or metric raises TrainingDiverged."""
    tensors = [t for net in params for t in nets.named_tensors(net).values()]
    best_value = metric()
    best = [t.copy() for t in tensors]
    best_epoch = 0
    recent: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), config.batch_size):
            value, grads = theta_grad(examples.take(order[start:start + config.batch_size]))
            if not np.isfinite(value):
                raise TrainingDiverged(epoch)
            nets.sgd_step(params[0], grads, config.lr_theta)
            recent.append(value)
        if warn_oscillation and len(recent) >= OSCILLATION_WINDOW:
            variance = float(np.var(recent[-OSCILLATION_WINDOW:]))
            if variance > OSCILLATION_THRESHOLD:
                warnings.warn(
                    f"objective variance {variance:.3g} over the last "
                    f"{OSCILLATION_WINDOW} updates exceeds {OSCILLATION_THRESHOLD}",
                    OscillationWarning)
                warn_oscillation = False
        current = metric()
        if not np.isfinite(current):
            raise TrainingDiverged(epoch)
        if current < best_value:
            best_value, best, best_epoch = current, [t.copy() for t in tensors], epoch
        if on_epoch is not None:
            on_epoch(epoch, stats(current))
        if epoch - best_epoch >= config.patience:
            break
    for t, snap in zip(tensors, best):
        t[...] = snap


def train_mle(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory] | ExampleSet,
    config: TrainConfig,
    valid: Sequence[Trajectory] | ExampleSet | None = None,
    on_epoch: Callable[[int, dict], None] | None = None,
) -> UserModel:
    """Fit the reward scorer by maximum likelihood; the behavior net is its induced softmax.

    `trajectories` and `valid` may be examples built by `build_examples` with
    `config.m`. The metric is the validation NLL (the training NLL without a
    validation set); see `_fit` for the early stop and divergence."""
    if config.regularizer is not Regularizer.SHANNON_ENTROPY:
        raise ValueError("maximum-likelihood training requires the entropy regularizer")
    rng = np.random.default_rng(config.seed)
    theta = nets.init_scorer_net(catalog.d, config.m, config.n, config.hidden, rng)
    examples, valid_examples = _fit_sets(catalog, trajectories, valid, config.m)
    eval_set = valid_examples if valid_examples else examples

    def stats(current: float) -> dict:
        out = {"train_nll": nll_loss(theta, examples, config.eta), "valid_nll": current}
        if eval_set.clicked.any():
            probe = UserModel(theta, theta, ChoiceConfig(config.eta, config.regularizer))
            out["prec1"] = precision_at_k(probe, eval_set, 1)
        return out

    _fit((theta,), examples, config, rng,
         lambda batch: nll_value_grad(theta, batch, config.eta),
         lambda: nll_loss(theta, eval_set, config.eta), stats, on_epoch)
    return UserModel(theta=theta, alpha=induced_softmax_alpha(theta, config.eta),
                     config=ChoiceConfig(config.eta, Regularizer.SHANNON_ENTROPY))


def minimax_alpha_grad(theta: ScorerNet, alpha: ScorerNet, examples: ExampleSet | Sequence[Example],
                       config: TrainConfig, forward=None) -> dict[str, np.ndarray]:
    """The behavior scorer's half of an alternating update: the gradient of the mean
    generator objective against theta's rewards (the caller ascends it). `forward` is
    _theta_forward(theta, examples), when the caller has it."""
    forward = _theta_forward(theta, examples) if forward is None else forward
    return _weighted([(len(pos),) + nets.minimax_behavior_value_and_grad(
        alpha, nets.scorer_batch(alpha, cache.F, cache.feats), cache.scores, config.eta, config.regularizer)
        for pos, _, cache in forward])[1]


def minimax_value_grads(theta: ScorerNet, alpha: ScorerNet,
                        examples: ExampleSet | Sequence[Example], config: TrainConfig, forward=None):
    """The reward scorer's half of an alternating update, against alpha's choice distribution.

    Returns (theta objective value, theta gradients). The expectation over the
    generator is an exact sum over display slots. `forward` as in minimax_alpha_grad."""
    forward = _theta_forward(theta, examples) if forward is None else forward
    return _weighted([(len(pos),) + nets.minimax_reward_value_and_grad(
        theta, cache, chosen, behavior_probs(alpha, cache.F, cache.feats), config.eta,
        config.regularizer) for pos, chosen, cache in forward])


def train_minimax(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory] | ExampleSet,
    config: TrainConfig,
    valid: Sequence[Trajectory] | ExampleSet | None = None,
    on_epoch: Callable[[int, dict], None] | None = None,
) -> UserModel:
    """Alternating adversarial estimation of the reward and behavior scorers.

    Ascends the behavior objective and descends the reward objective once per
    minibatch, and warns with OscillationWarning when the reward objective
    oscillates. The metric is the held-out negative log-likelihood of the
    choice rule. With init_scheme=ENTROPY_INIT the entropy model is trained
    first on the same examples and both scorers start from it."""
    rng = np.random.default_rng(config.seed)
    examples, valid_examples = _fit_sets(catalog, trajectories, valid, config.m)
    if config.init_scheme is InitScheme.ENTROPY_INIT:
        mle_config = replace(config, regularizer=Regularizer.SHANNON_ENTROPY,
                             init_scheme=InitScheme.FRESH,
                             epochs=config.init_epochs if config.init_epochs is not None else config.epochs)
        base = train_mle(catalog, examples, mle_config, valid=valid_examples)
        theta, alpha = base.theta, base.alpha  # train_mle's own nets, held nowhere else
    else:
        theta = nets.init_scorer_net(catalog.d, config.m, config.n, config.hidden, rng)
        alpha = nets.init_scorer_net(catalog.d, config.m, config.n, config.hidden, rng)

    def theta_grad(batch: ExampleSet):  # the alpha step leaves theta, so its forward serves both
        forward = _theta_forward(theta, batch)
        nets.sgd_step(alpha, minimax_alpha_grad(theta, alpha, batch, config, forward),
                      config.lr_alpha, ascend=True)
        return minimax_value_grads(theta, alpha, batch, config, forward)

    def metric() -> float:
        probe = UserModel(theta, alpha, ChoiceConfig(config.eta, config.regularizer))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return -heldout_loglik(probe, valid_examples if valid_examples else examples)

    def stats(current: float) -> dict:
        return {"objective": minimax_objective(theta, alpha, examples, config.eta,
                                               config.regularizer),
                "valid_nll": current}

    _fit((theta, alpha), examples, config, rng, theta_grad, metric, stats, on_epoch,
         warn_oscillation=True)
    return UserModel(theta=theta, alpha=alpha, config=ChoiceConfig(config.eta, config.regularizer))


# ---------------------------------------------------------------------------
# model checkpoints


def save_user_model(path, model: UserModel) -> None:
    meta = {"eta": format(model.config.eta, ".17g"), "regularizer": model.config.regularizer.value,
            "activation": nets.ACTIVATION, "d": str(model.d), "m": str(model.m),
            "n": str(model.theta.pw.n), "hidden": str(model.theta.head.v.shape[0])}
    nets.save_checkpoint(path, "user_model", meta, {"theta_": model.theta, "alpha_": model.alpha})


def load_user_model(path, **run: int) -> UserModel:
    """The user model of a user_model checkpoint, read as nets.load_checkpoint reads it."""
    def build(meta: dict[str, str], theta: ScorerNet, alpha: ScorerNet) -> UserModel:
        config = ChoiceConfig(eta=float(meta["eta"]), regularizer=Regularizer(meta["regularizer"]))
        return UserModel(theta=theta, alpha=alpha, config=config)

    return nets.load_checkpoint(path, "user_model", {"theta_": ScorerNet, "alpha_": ScorerNet}, build, **run)
