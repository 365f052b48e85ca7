"""Companion to ``_toy_driver`` whose ``run`` rejects ``duration``.

Exercises the runner's error for a driver that takes no ``duration``
through a real importable module path, as scenario execution requires.
"""

from _toy_driver import run_no_duration as run  # noqa: F401
