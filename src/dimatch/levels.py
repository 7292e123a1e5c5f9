"""Empty: the distance-level decomposition that lived here is gone.

An xy branch assigns x and y black, propagates, and completes each
undecided part with the exact subsolver (`solver.constrained_subsolver`),
whose propagation and fewest-options pick find what the level rules
forced.  The module stays only because the benchmark harness
(`bench/spans.py`, `MODULES`) imports it by name; it goes once the
harness no longer lists it.
"""
