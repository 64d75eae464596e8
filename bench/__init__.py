"""Benchmark of selinf; run it with ``python3 bench/run.py --help``."""
