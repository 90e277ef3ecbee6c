"""Layered benchmark of the abslog verify pipeline (see README.md)."""
