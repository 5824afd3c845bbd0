"""The repository benchmark (see ``perfbench/README.md``); run ``perfbench/run.py``."""
