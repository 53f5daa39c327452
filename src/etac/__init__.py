"""Event-triggered anytime control over unreliable links.

Simulation of a nonlinear plant whose sensor transmits only outside a target
ball, through an erasure channel, to a controller with random per-step
processor availability; plus the closed-form stochastic-stability machinery
(contraction factors, buffer-length chain, stability boundaries) and
brute-force oracles that cross-check it.
"""

__version__ = "0.1.0"
