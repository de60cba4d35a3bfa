"""TBNet training and serving benchmark (see perfbench/run.py)."""
