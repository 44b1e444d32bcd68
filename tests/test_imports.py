"""Every name a ``sltosim`` module imports is used in that module, and every
module-level definition is read somewhere in ``src/`` or ``scripts/``.

No linter ships with the project, so this test is its unused-import and
dead-definition check.  The one exception to the import check is a name
that ``bench/tracing.py`` replaces in the module's namespace while a
traced run times it: a (module, name) pair in ``SPANS``, or
``SpectralPropagator`` in a module of ``PROPAGATOR_USERS``.  Such a name
is imported so that the tracer can find it, used or not.  An import line
is not a read; a definition that only the acceptance suite, the tracer or
``KEPT_UNREAD`` names is kept, and every ``KEPT_UNREAD`` name must still be
defined by some module.

The layering is checked here too: ``cli`` sits on top, so no other module
imports it, and ``import sltosim`` loads neither the CLI, the matrix-file
module nor the verifier.  The package re-exports nothing: it binds its
library modules and ``__version__``, so every name has one import path.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sltosim"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

#: definitions that nothing reads yet, kept on purpose, with the reason
KEPT_UNREAD = {
    "inverse_intensity_profile": "ROADMAP item 3 calls it",
}


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


def module_definitions(source: str) -> set[str]:
    """Names that the top level of ``source`` binds by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def read_names(sources) -> set[str]:
    """Names the ``sources`` read, as a bare name or as an attribute; an import
    binds a name without reading it."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread_definitions(modules: dict[str, str], readers) -> list[str]:
    """``module.name`` for each definition in ``modules`` (name -> source) that
    no source in ``readers`` reads and no exemption keeps."""
    read = read_names(readers)
    kept = acceptance_imports() | {name for _, name in PATCHED} | set(KEPT_UNREAD)
    return sorted(f"{module}.{name}" for module, source in modules.items()
                  for name in module_definitions(source) - read - kept)


def stale_kept(modules: dict[str, str], kept) -> list[str]:
    """The names in ``kept`` that no source in ``modules`` defines."""
    defined = set().union(*map(module_definitions, modules.values()))
    return sorted(set(kept) - defined)


def test_every_definition_is_read():
    modules = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES}
    scripts = [path.read_text() for path in (ROOT / "scripts").glob("*.py")]
    assert unread_definitions(modules, [*modules.values(), *scripts]) == []


def test_every_kept_name_is_defined():
    modules = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES}
    assert stale_kept(modules, KEPT_UNREAD) == []


def test_stale_kept_name_is_flagged():
    source = "def inverse_intensity_profile(x):\n    return x\n"
    kept = {**KEPT_UNREAD, "charge_blocks": "planted: no module defines it"}
    assert stale_kept({"planted": source}, kept) == ["charge_blocks"]


def test_unread_definition_is_flagged():
    source = ("import numpy as np\n"
              "from .linalg import max_abs\n"
              "LIMIT = 3\n"
              "UNUSED_LIMIT = 4\n"
              "def helper(x):\n"
              "    return np.abs(x)\n"
              "def orphan(x):\n"
              "    return helper(x) + LIMIT\n"
              "class Kept:\n"
              "    pass\n"
              "def inverse_intensity_profile(x):\n"
              "    return x\n")
    reader = "from .planted import orphan, UNUSED_LIMIT\nKept()\n"
    # importing a name is not a read; KEPT_UNREAD keeps inverse_intensity_profile
    assert unread_definitions({"planted": source}, [source, reader]) == [
        "planted.UNUSED_LIMIT", "planted.orphan"]


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


def imports_cli(source: str) -> bool:
    """Whether ``source``, a module of the package, imports ``cli`` anywhere."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] == ["sltosim", "cli"] for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("cli", "sltosim.cli") or (
                    module in ("", "sltosim") and any(a.name == "cli" for a in node.names)):
                return True
    return False


def test_no_library_module_imports_cli():
    assert [module for module in MODULES
            if module != "cli" and imports_cli((PACKAGE / f"{module}.py").read_text())] == []


@pytest.mark.parametrize("source, flagged", [
    ("from . import cli\n", True),
    ("from .cli import ConfigError\n", True),
    ("from sltosim import cli, engine\n", True),
    ("from sltosim.cli import main\n", True),
    ("import sltosim.cli\n", True),
    ("def run():\n    from .cli import write_matrix_file\n", True),
    ("from .bytescan import ConfigError\nfrom . import slto\n", False),
    ("from .client import cli\nimport sltosim\n", False),
])
def test_cli_import_is_flagged(source, flagged):
    assert imports_cli(source) is flagged


def test_import_sltosim_leaves_out_the_cli_and_the_verifier():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, sltosim; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "sltosim.engine" in loaded
    assert {"sltosim.cli", "sltosim.slto", "sltosim.bytescan"}.isdisjoint(loaded)


def test_package_binds_only_its_library_modules():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    modules, bound = subprocess.run(
        [sys.executable, "-c", "import sys, sltosim\n"
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'sltosim'))\n"
         "print(*sorted(vars(sltosim)))"],
        env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    library = ["designer", "engine", "linalg", "optics", "thermal"]
    assert modules.split() == ["sltosim", *(f"sltosim.{name}" for name in library)]
    assert [name for name in bound.split() if not name.startswith("__")] == library
    assert "__version__" in bound.split()
