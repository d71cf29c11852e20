"""Gradual null-pointer analysis for the PICL core language.

The package is organized by pipeline stage:

- ``lattice``: base and gradual nullness domains
- ``syntax``: PICL lexer/parser, surface checks, rendering
- ``cfg``: lowering to one-instruction-per-vertex control-flow graphs; annotation sites, edits and erasure
- ``analysis``: the transfer function, fixpoint engine, warnings and check sites
- ``runtime``: small-step machine, plain and checked (gradual) execution
- ``cli``: the ``graduator`` command
- ``record``: ``Record``, the base of the record classes: constructor, equality, hash and repr
- ``testkit``: seeded program generator and self-check oracles
"""

from __future__ import annotations

__version__ = "0.1.0"
