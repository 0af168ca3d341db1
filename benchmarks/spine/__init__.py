"""The repo's benchmark: five named workloads, end-to-end and per-layer
metrics, one traced run.  See README.md in this directory."""
