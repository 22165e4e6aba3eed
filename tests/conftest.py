import tempfile

import numpy as np
import pytest

from compound_kge.model import init_model
from compound_kge.scoring import compound_spec
from compound_kge.synthetic import SyntheticPattern, generate_synthetic_kg
from compound_kge.training import TrainConfig, train

HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """Hypothesis caches the literals it finds in local modules under its home
    directory, ``.hypothesis/`` in the working directory by default; give it a
    temporary one for the session instead, so a test run leaves nothing in the
    checkout."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = config.stash[HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    if HYPOTHESIS_HOME in config.stash:
        config.stash[HYPOTHESIS_HOME].cleanup()


@pytest.fixture(scope="session")
def trained_symmetric():
    """Head-side S.R.T model trained on the symmetric matching store.

    Shared across test modules: training takes a few seconds and both
    the training contract (small learned translations) and the
    histogram export checks inspect the same run.
    """
    store = generate_synthetic_kg(SyntheticPattern.SYMMETRIC, seed=1)
    spec = compound_spec("head", "SRT", "", dim=32)
    model = init_model(
        spec, store.n_entities, store.n_relations, np.random.default_rng(0)
    )
    config = TrainConfig(
        learning_rate=1e-2,
        batch_size=64,
        negative_size=32,
        adversarial_temperature=1.0,
        margin=6.0,
        max_steps=2000,
        seed=0,
        valid_interval=1000,
    )
    result = train(store, model, config)
    return store, result
