"""Every name a ``sltosim`` module imports is used in that module.

No linter ships with the project, so this test is its unused-import check.
The one exception is a name that ``bench/tracing.py`` replaces in the
module's namespace while a traced run times it: a (module, name) pair in
``SPANS``, or ``SpectralPropagator`` in a module of ``PROPAGATOR_USERS``.
Such a name is imported so that the tracer can find it, used or not.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sltosim"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def tracer_patched() -> frozenset[tuple[str, str]]:
    """The (module, name) pairs the tracer replaces, read from bench/tracing.py."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return frozenset({(module, name) for module, name, _ in tracing.SPANS}
                     | {(module, "SpectralPropagator") for module in tracing.PROPAGATOR_USERS})


PATCHED = tracer_patched()


def unused_imports(source: str, module: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` (``__future__`` aside)
    that no expression of it reads and the tracer does not patch in ``module``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used if (module, name) not in PATCHED)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text(), module) == []


def test_stale_import_is_flagged():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .engine import ChargeBlock, CompactEngineConfig\n"
              "from .linalg import SpectralPropagator\n"
              "def run(cfg: CompactEngineConfig):\n"
              "    from .thermal import gibbs_probabilities\n"
              "    return np.zeros(1)\n")
    # the tracer patches SpectralPropagator in optics, not in cli
    assert unused_imports(source, "optics") == ["ChargeBlock", "gibbs_probabilities"]
    assert unused_imports(source, "cli") == ["ChargeBlock", "SpectralPropagator",
                                             "gibbs_probabilities"]
