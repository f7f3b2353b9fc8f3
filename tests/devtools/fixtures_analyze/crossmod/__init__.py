"""Fixture package: cross-module defects the per-module rules cannot see.

Every module here is clean under the lint pass of ``urllc5g analyze``
(the defects only exist across module boundaries), yet the
whole-program passes flag each one — the test-suite asserts both
directions.  ``timing.py`` is the deliberate exception: it contains
the *direct* wall-clock read that the lint pass does catch, so the
tests can show the transitive finding in ``jitter.py`` is new
information.
"""

__all__ = []
