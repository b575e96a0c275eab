"""The SVDD query stack's benchmark: one model, four workloads, a per-layer ladder.

Run as ``python3 -m benchmarks.harness --workload <name> --seed <int>
--seconds <int> --trace <0|1>`` from the repository root; see
``README.md`` beside this file and ``BENCHMARK.json`` at the root.
"""
