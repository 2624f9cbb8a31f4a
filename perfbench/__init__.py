"""End-to-end benchmark: build-out and journaled serving (see README.md)."""
