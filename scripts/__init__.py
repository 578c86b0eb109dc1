"""Benchmark scripts.

Each ``bench_<name>.py`` is the only body of its benchmark: problem
builders, timing loops, gates and floors.  Its ``benchmarks/`` pytest
twin imports those functions and asserts the floors on the numbers they
return.
"""
