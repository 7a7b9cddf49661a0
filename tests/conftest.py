"""Test settings beyond `pyproject.toml`'s: the warnings policy's one exception."""

import warnings

# To report a failing example, Hypothesis's pytest plugin imports
# `hypothesis.extra._patching` inside its report hook.  Where libcst is
# installed, that import chain warns that `mypy_extensions.TypedDict` is
# deprecated, and `filterwarnings = ["error"]` (or `-W error`) turns the warning
# into an INTERNALERROR that ends the session.  Importing the module once
# here, with only that warning ignored, keeps every other warning an error.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then skips the import too
        pass
