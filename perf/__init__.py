"""Outside-in benchmark of the MPA program: ``python -m perf run``.

Every workload runs the unmodified program from ``src/`` in fresh child
interpreters (see :mod:`perf.child`); nothing here is imported by
``src/``. See ``perf/README.md`` for the workloads and metrics.
"""
