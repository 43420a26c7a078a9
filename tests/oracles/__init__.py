"""Frozen reference implementations the differential suites compare against.

Nothing here ships: the package has one implementation per layer, and the
slow, obviously-correct originals live with the tests that need them.
"""
