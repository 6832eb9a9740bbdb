"""Tests for the top-level package API (repro.__init__)."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
import repro.analysis
import repro.attacks

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for package in (repro, repro.attacks, repro.analysis):
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_core_classes_exported(self):
        assert repro.FaultSneakingAttack is not None
        assert repro.FaultSneakingConfig is not None
        assert repro.make_attack_plan is not None


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        """numpy is the only runtime dependency: importing the CLI's modules
        in a fresh interpreter must not pull in scipy."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        probe = (
            "import sys; import repro, repro.experiments; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[]"


class TestQuickstart:
    def test_quickstart_attack(self, session_registry, monkeypatch, tmp_path):
        # route the registry used inside quickstart_attack to a hermetic cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        result, evaluation = repro.quickstart_attack(
            num_targets=1, num_images=20, scale="smoke", seed=0
        )
        assert result.num_targets == 1
        assert 0.0 <= evaluation.success_rate <= 1.0
        assert evaluation.l0_norm == result.l0_norm
        assert np.isfinite(evaluation.attacked_test_accuracy)


class TestExamples:
    def test_example_imports_resolve(self):
        """Every ``from repro... import name`` in ``examples/*.py`` resolves.

        Only the CI smoke job runs the examples, so without this check a
        removed or renamed public name would break them unnoticed here.
        """
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert scripts
        checked = 0
        for script in scripts:
            for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
                if not isinstance(node, ast.ImportFrom) or node.module is None:
                    continue
                if node.module.split(".")[0] != "repro":
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    # ``from package import submodule`` resolves without an attribute.
                    submodule = f"{node.module}.{alias.name}"
                    assert hasattr(module, alias.name) or importlib.util.find_spec(
                        submodule
                    ), f"{script.name}: from {node.module} import {alias.name}"
                    checked += 1
        assert checked
