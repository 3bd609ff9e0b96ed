"""Environment abstraction: one protocol, one kernel, two clocks.

``repro.runtime.api`` defines the contract (and is import-cycle-free);
the two drivers load lazily because :mod:`repro.sim.engine` itself imports
``repro.runtime.api`` — an eager ``from .sim_env import SimEnv`` here
would re-enter a partially initialized package when the import chain
starts from ``repro.sim``.
"""

from repro.runtime.api import EnvError

__all__ = ["AsyncioEnv", "EnvError", "SimEnv"]

_LAZY = {
    "SimEnv": "repro.runtime.sim_env",
    "AsyncioEnv": "repro.runtime.aio",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name)
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)
