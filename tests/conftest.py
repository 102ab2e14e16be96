"""Hypothesis draws its examples from a seed derived from each test, so two
runs of the suite on one commit test the same examples. Each test keeps its
own max_examples."""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
