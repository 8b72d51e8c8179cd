"""Test-session set-up.

The hypothesis pytest plugin imports hypothesis.extra._patching to report
a failing property test.  That module imports libcst, which raises a
mypy_extensions DeprecationWarning on import, so under
`-W error::DeprecationWarning` the report itself aborts the whole session
and the tests after it never run.  Importing the module here, with only
DeprecationWarning ignored and only for this import, lets the failure be
reported like any other; no filter for oqcsim's own code changes.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:                     # no hypothesis, or no libcst
        pass
