"""Exact homotopy transfer for finite-dimensional dg BV-algebras."""
