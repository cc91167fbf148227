"""The repository's benchmark: CIP silo training, virtual cross-device
cohorts and the membership-inference audit.  Run ``perfbench/run.py``."""
