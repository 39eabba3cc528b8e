"""End-to-end and per-layer benchmark of the dicond solver (see DESIGN.md)."""
