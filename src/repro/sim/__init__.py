"""Discrete-event simulation engine.

A from-scratch generator-based DES kernel in the style of SimPy, providing
the time base for the simulated FalconFS cluster: an :class:`Environment`
with an event heap, :class:`Process` coroutines driven by ``yield``-ed
events, capacity-limited :class:`Resource` objects (CPU cores, disks) and
unbounded :class:`Store` queues (message channels), plus deterministic named
random streams.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
