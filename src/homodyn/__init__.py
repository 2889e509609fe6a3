"""homodyn: a numerical laboratory for flows on the modular surface."""

__version__ = "0.1.0"
