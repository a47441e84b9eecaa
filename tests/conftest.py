"""Settings shared by every test module."""

import pytest

# When a hypothesis test fails, hypothesis's report hook imports libcst, whose
# type_inference_provider subclasses mypy_extensions.TypedDict and so emits
# that one DeprecationWarning.  Under ``-W error`` the warning would escape the
# hook as an INTERNALERROR and stop the whole run in place of one reported
# failure.  A mark outranks ``-W``, which an ini ``filterwarnings`` does not.
_LIBCST_TYPEDDICT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    ":libcst.metadata.type_inference_provider"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_LIBCST_TYPEDDICT)
