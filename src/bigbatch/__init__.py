"""Simulated multi-device training with synchronized batch normalization.

Everything runs in one process: devices are threads, collectives meet at
a shared rendezvous table per scope, and every reduction has a fixed order
so that runs are reproducible down to the last bit.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
