"""End-to-end and per-layer benchmark of stochord; see README.md and run.py."""
