"""Experiment drivers: one module per paper figure/table and per gated
experiment, each exposing a harness ``SPEC`` (see :mod:`.harness`).

``configs`` encodes Tables 1-4; ``runner`` builds configured VMs and
executes workloads under each system.
"""

from . import configs, runner

__all__ = ["configs", "runner"]
