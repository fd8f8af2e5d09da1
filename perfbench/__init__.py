"""Benchmark of the coilsense CLI; see README.md."""
