import pytest

from autoduct.agents import PipelineRecipe, ProjectContext
from autoduct.dataset import (SyntheticConfig, fit_normalizer,
                              generate_synthetic, split, write_csv)
from autoduct.ensemble import train_ensemble
from autoduct.neural_net import ActivationKind, MLPConfig, TrainConfig

# small but not degenerate: enough rows for a 72/18/10 split with a
# usable validation set
TINY_N = 400
TINY_SEED = 11


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_synthetic(SyntheticConfig(n=TINY_N, seed=TINY_SEED))


@pytest.fixture(scope="session")
def tiny_splits(tiny_dataset):
    return split(tiny_dataset, (0.72, 0.18, 0.10), seed=1)


@pytest.fixture(scope="session")
def tiny_normalizer(tiny_splits):
    return fit_normalizer(tiny_splits.train)


@pytest.fixture(scope="session")
def tiny_ensemble(tiny_splits, tiny_normalizer):
    """Three very small members, trained for a handful of epochs. Shared
    across tests that need any trained ensemble at all."""
    configs = []
    for i, kind in enumerate((ActivationKind.RELU, ActivationKind.GELU,
                              ActivationKind.SOFTPLUS)):
        mlp = MLPConfig(input_dim=5, hidden_layers=2, hidden_units=12,
                        activation=kind, dropout_rate=0.0)
        tc = TrainConfig(learning_rate=3e-3, weight_decay=1e-5, batch_size=64,
                         epochs=15, seed=100 + i, patience=6)
        configs.append((mlp, tc))
    return train_ensemble(tiny_splits, tiny_normalizer, configs)


@pytest.fixture
def drill_recipe():
    """Fast pipeline recipe for agent-loop drills."""
    return PipelineRecipe(member_count=2, hidden_layers=1, hidden_units=8,
                          epochs=8, patience=4, batch_size=128)


@pytest.fixture
def agent_workspace(tmp_path, tiny_dataset):
    """Workspace with the tiny dataset staged at the standard role path."""
    def _make(name="ws", run_id="run-t"):
        ws = tmp_path / name
        ws.mkdir()
        ctx = ProjectContext(ws, run_id=run_id)
        write_csv(tiny_dataset, ctx.path("dataset_file"))
        return ctx
    return _make
