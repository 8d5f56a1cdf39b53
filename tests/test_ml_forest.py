"""Tests for the bagged random-forest classifier."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.ml.forest import RandomForestClassifier


@pytest.fixture()
def data(rng):
    x = rng.uniform(-1, 1, size=(300, 5))
    y = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, 1, 0)
    return x, y


class TestFit:
    def test_train_accuracy_high(self, data):
        x, y = data
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(x, y)
        assert forest.score(x, y) > 0.97

    def test_generalizes(self, data, rng):
        x, y = data
        forest = RandomForestClassifier(n_estimators=30, random_state=0).fit(x, y)
        x_test = rng.uniform(-1, 1, size=(200, 5))
        y_test = np.where(x_test[:, 0] + 0.5 * x_test[:, 1] > 0, 1, 0)
        assert forest.score(x_test, y_test) > 0.9

    def test_n_estimators_respected(self, data):
        x, y = data
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(x, y)
        assert len(forest.trees_) == 7

    def test_deterministic_given_seed(self, data):
        x, y = data
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, random_state=3).fit(x, y)
        np.testing.assert_allclose(a.predict_proba(x), b.predict_proba(x))

    def test_seed_changes_forest(self, data):
        x, y = data
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, random_state=4).fit(x, y)
        assert not np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_trees_differ(self, data):
        x, y = data
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(x, y)
        t0, t1 = forest.trees_[0].tree_, forest.trees_[1].tree_
        assert (
            t0.n_nodes != t1.n_nodes
            or not np.array_equal(t0.threshold, t1.threshold)
        )

    def test_refit_is_identical_in_any_process(self, tmp_path):
        # FrozenProfile.load relies on a refit reproducing the frozen
        # forest, so the keyed sampler must not depend on the process
        # (hash randomization included).
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from repro.ml.forest import RandomForestClassifier
            gen = np.random.default_rng(0)
            x = gen.integers(0, 6, size=(150, 9)).astype(float)
            y = gen.integers(0, 4, size=150)
            forest = RandomForestClassifier(n_estimators=6, random_state=11)
            forest.fit(x, y)
            np.savez(sys.argv[1], **{
                f"{t}.{name}": getattr(tree.tree_, name)
                for t, tree in enumerate(forest.trees_)
                for name in ("children_left", "children_right", "feature",
                             "threshold", "value", "n_node_samples")
            })
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        fits = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"forest_{hash_seed}.npz"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-c", script, str(out)],
                           env=env, check=True, timeout=120)
            with np.load(out) as arrays:
                fits.append({name: arrays[name] for name in arrays.files})
        first, second = fits
        assert first.keys() == second.keys() and first
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_oob_score(self, data):
        x, y = data
        forest = RandomForestClassifier(n_estimators=30, random_state=0)
        forest.fit(x, y, compute_oob=True)
        assert forest.oob_score_ is not None
        assert forest.oob_score_ > 0.85

    def test_no_bootstrap(self, data):
        x, y = data
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(x, y)
        assert forest.score(x, y) > 0.97

    def test_missing_class_in_bootstrap_handled(self, rng):
        # A tiny minority class can vanish from bootstrap samples; the
        # forest must still emit probability columns for every class.
        x = rng.normal(size=(50, 3))
        y = np.zeros(50, dtype=int)
        y[:2] = 1
        y[2:4] = 2
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(x, y)
        proba = forest.predict_proba(x)
        assert proba.shape == (50, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestPredict:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestClassifier().predict(np.ones((1, 2)))

    def test_predict_labels_in_classes(self, data):
        x, y = data
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(x, y)
        assert set(forest.predict(x)) <= set(forest.classes_.tolist())

    def test_multiclass(self, rng):
        x = rng.uniform(-1, 1, size=(400, 4))
        y = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(x, y)
        assert forest.score(x, y) > 0.95
        assert forest.predict_proba(x).shape == (400, 4)


class TestScore:
    @given(seed=st.integers(0, 2**32 - 1),
           n_labels=st.integers(1, 5),
           max_depth=st.integers(1, 6),
           n_estimators=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_compiled_score_equals_object_predict(self, seed, n_labels,
                                                  max_depth, n_estimators):
        gen = np.random.default_rng(seed)
        # Coarse values make vote ties, where the two paths could diverge.
        x = gen.integers(0, 4, size=(80, 3)) / 4
        y = gen.integers(0, n_labels, size=80)
        forest = RandomForestClassifier(n_estimators=n_estimators,
                                        max_depth=max_depth,
                                        random_state=seed).fit(x[:60], y[:60])
        for rows in (slice(0, 60), slice(60, 80)):
            expected = float(np.mean(forest.predict(x[rows]) == y[rows]))
            assert forest.score(x[rows], y[rows]) == expected

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestClassifier().score(np.ones((1, 2)), [0])


class TestValidation:
    def test_bad_estimators(self):
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestClassifier(n_estimators=0)

    def test_label_mismatch(self, rng):
        with pytest.raises(ValueError, match="one label per row"):
            RandomForestClassifier(n_estimators=2).fit(
                rng.normal(size=(10, 2)), np.zeros(8)
            )
