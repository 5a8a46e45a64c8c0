"""Popularity-aware top-K recommendation from multi-behavior implicit feedback."""

# every layer module is loaded with the package, as perfbench/spans.py expects
from popsi import baselines, data, linalg, metrics, model  # noqa: F401

__version__ = "0.1.0"
