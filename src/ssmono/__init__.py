"""Renyi-alpha entanglement measures and a Monte Carlo search for violations of
strong superadditivity and second-order monogamy in 4-qubit pure states."""

__version__ = "0.1.0"
