"""Served-mixer benchmark: closed-loop HTTP workloads against ``repro.serve``.

Run ``python3 servebench/run.py --workload <name> --seed <n>``; see
``servebench/README.md`` for the workloads, metrics and traced run.
"""
