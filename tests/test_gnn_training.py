"""End-to-end GNN training tests: the model must actually learn."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gnn import (
    Adam,
    FeatureTable,
    GraphSAGE,
    NeighborSampler,
    Trainer,
    accuracy,
    macro_f1,
)
from repro.graph import load_dataset
from repro.graph.datasets import IN_MEMORY


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("amazon", variant=IN_MEMORY, scale=2e-5, seed=0)
    feats = FeatureTable(ds.features(noise=0.6))
    labels = ds.labels()
    sampler = NeighborSampler(ds.graph, fanouts=(5, 5))
    return ds, feats, labels, sampler


def test_model_forward_shapes(setup):
    ds, feats, labels, sampler = setup
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes,
                      rng=np.random.default_rng(0))
    batch = sampler.sample_batch(np.arange(16), np.random.default_rng(1))
    logits = model.forward(batch, feats.gather(batch.input_nodes))
    assert logits.shape == (16, ds.num_classes)


def test_model_layer_mismatch_rejected(setup):
    ds, feats, labels, sampler = setup
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, num_layers=3)
    batch = sampler.sample_batch(np.arange(4), np.random.default_rng(2))
    with pytest.raises(ConfigError):
        model.forward(batch, feats.gather(batch.input_nodes))


def test_model_parameter_count(setup):
    ds, *_ = setup
    model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, num_layers=2)
    expected = (
        (2 * ds.feature_dim) * 16 + 16      # conv0
        + (2 * 16) * 16 + 16                # conv1
        + 16 * ds.num_classes + ds.num_classes  # head
    )
    assert model.parameter_count() == expected


def test_training_reduces_loss(setup):
    ds, feats, labels, sampler = setup
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes,
                      rng=np.random.default_rng(3))
    trainer = Trainer(
        model, sampler, feats, labels,
        Adam(model.parameters(), lr=1e-2), batch_size=64,
    )
    train, _test = ds.train_test_split()
    result = trainer.fit(train[:256], epochs=8,
                         rng=np.random.default_rng(4))
    early = float(np.mean(result.losses[:4]))
    late = float(np.mean(result.losses[-4:]))
    assert late < early * 0.8


def test_training_beats_chance(setup):
    ds, feats, labels, sampler = setup
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes,
                      rng=np.random.default_rng(5))
    trainer = Trainer(
        model, sampler, feats, labels,
        Adam(model.parameters(), lr=5e-3), batch_size=64,
    )
    train, test = ds.train_test_split()
    result = trainer.fit(
        train[:512], epochs=5, rng=np.random.default_rng(6),
        eval_nodes=test[:256],
    )
    chance = 1.0 / ds.num_classes
    assert result.final_eval_accuracy > 3 * chance


def test_trainer_validation(setup):
    ds, feats, labels, sampler = setup
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, num_layers=1)
    with pytest.raises(ConfigError):
        Trainer(model, sampler, feats, labels,
                Adam(model.parameters()), batch_size=8)  # layer mismatch
    model2 = GraphSAGE(ds.feature_dim, 8, ds.num_classes, num_layers=2)
    with pytest.raises(ConfigError):
        Trainer(model2, sampler, feats, labels,
                Adam(model2.parameters()), batch_size=0)


def test_metrics_sanity():
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels) == pytest.approx(2 / 3)
    assert 0.0 < macro_f1(logits, labels) <= 1.0
