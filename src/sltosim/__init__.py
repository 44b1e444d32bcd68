"""One-step quantum heat-engine cycles driven by semi-local thermal operations.

Simulates two engine realizations (a two-ladder exchange engine and a
cavity-QED three-level engine), verifies their conservation laws and
performance claims, and fits cavity profiles that realize the required
intensity-dependent couplings.

Every name is imported from its own module (``from sltosim.engine import
evolve_cycle``); the package binds only its modules and ``__version__``.
"""

__version__ = "0.1.0"

from . import designer, engine, linalg, optics, thermal
