"""Leg entry points, each run in a fresh interpreter by ``run.py``."""
