"""Fitted user-model tensors are byte-stable: two fixed-seed fits against recorded digests.

The digests in golden/fit_digests.json were first recorded when each
minibatch was still stacked from per-example arrays, and the dense example
set reproduced them bit for bit. They were re-recorded twice. First, when
the scorer's contractions moved from np.einsum to matmuls, which moves fitted
tensors in the last bits. Second, when nets.head_scores came to run its state
and item products per row, so that a row's scores no longer depend on its
batch: fitted tensors moved by at most 1.9e-16 of a tensor's largest entry
(theta V of mle, alpha V of l2_entropy_init). Print the current digests with
`PYTHONPATH=src python tests/test_fit_golden.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from slatesim.agent import PolicyHandle, PolicyKind, make_policy
from slatesim.choice import Regularizer
from slatesim.data import synth_catalog
from slatesim.env import EnvConfig, SlateEnv, make_ground_truth_user, rollout
from slatesim.nets import named_tensors
from slatesim.training import InitScheme, TrainConfig, train_minimax, train_mle

GOLDEN = Path(__file__).parent / "golden" / "fit_digests.json"


def _logs():
    """Ragged click logs: slates of 3 and 4 items (4 and 5 slots), users interleaved."""
    catalog = synth_catalog(20, 4, seed=3)
    user = make_ground_truth_user(catalog, (3, 2, 6), seed=4, reward_scale=2.0)
    trajs = []
    for u in range(24):
        k = 3 + u % 2
        env = SlateEnv(catalog, EnvConfig(k=k, pool_size=8, horizon=7))
        policy = make_policy(PolicyHandle(PolicyKind.RANDOM), catalog, k)
        trajs.append(rollout(env, user, policy, seed=2 * u, user_id=u)[0])
    return catalog, trajs[:18], trajs[18:]


FITS = {
    "mle": (train_mle, dict()),
    "l2_entropy_init": (train_minimax, dict(regularizer=Regularizer.L2, lr_alpha=0.05,
                                             init_scheme=InitScheme.ENTROPY_INIT, init_epochs=4)),
}


def fit_digest(name: str) -> str:
    catalog, train, valid = _logs()
    fit, extra = FITS[name]
    config = TrainConfig(epochs=4, batch_size=16, lr_theta=0.08, m=3, n=2, hidden=6,
                         seed=17, patience=4, **extra)
    model = fit(catalog, train, config, valid=valid)
    h = hashlib.sha256()
    for prefix, net in (("theta", model.theta), ("alpha", model.alpha)):
        for tensor_name, t in named_tensors(net).items():
            h.update(f"{prefix}_{tensor_name}{t.shape}{t.dtype}".encode())
            h.update(t.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert fit_digest(name) == golden[name]


if __name__ == "__main__":
    print(json.dumps({name: fit_digest(name) for name in sorted(FITS)}, indent=1))
