"""End-to-end benchmark harness for the dCAM serving and streaming stack.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for the
workloads, the metrics and how to run it.
"""
