"""Dependency-forest generation and forest-based relation extraction."""

__version__ = "0.1.0"
