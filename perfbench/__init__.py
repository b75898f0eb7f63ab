"""Seeded end-to-end and per-layer benchmark for tet4d (see README.md)."""
