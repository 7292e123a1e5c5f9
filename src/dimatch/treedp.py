"""Empty: the clique-tree dynamic program that lived here is gone.

The solver completes block components with its exact subsolver
(`solver.constrained_subsolver`).  The module stays only because the
benchmark harness (`bench/spans.py`, `MODULES`) imports it by name; it
goes once the harness no longer lists it.
"""
