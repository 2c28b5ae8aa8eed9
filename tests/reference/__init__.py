"""Frozen reference implementations used as test oracles.

``tests/conftest.py`` puts ``tests/`` on ``sys.path``, so suites import them
as ``from reference.<module> import ...``.  Nothing here ships in the
package: each module pins the behaviour a production kernel must keep.
"""
