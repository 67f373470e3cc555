"""Host-time benchmark of the PERT reproduction (see README.md here).

Work is counted in packet hops and DDE member-steps; layers are timed
from outside, by wrapping their entry points (``hopbench.trace``).
"""
