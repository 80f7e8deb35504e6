"""Lifecycle benchmark of the repro program (see run.py)."""
