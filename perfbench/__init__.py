"""Seeded end-to-end and per-layer benchmark for padic-mub (see README.md)."""
