"""The two float tolerances of the scheduling layer, and the rule each encodes.

Import the one whose rule the comparison states; a new bare literal in a
comparison of times is a defect (``tests/sched/test_structure.py``).
Hot loops bind the constant to a module global
(``from repro.sched.tol import EPS_SNAP as _EPS``).
"""

__all__ = ["EPS_SNAP", "EPS_DUE"]

#: Times this close are one instant; the kernel snaps them onto one breakpoint.
EPS_SNAP = 1e-9

#: A reservation this close to the clock is due; ``Profile.rebuild_into``
#: clamps running horizons this far past ``now``.
EPS_DUE = 1e-6
