"""Calibrated end-to-end benchmark of the private-inference stack.

Run it with ``python -m bench_e2e --seed S``; see ``README.md`` beside
this file for the workloads, the metrics and how a run is structured.
"""
