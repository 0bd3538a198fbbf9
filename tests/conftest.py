"""Session set-up shared by every test module.

hypothesis's pytest plugin imports `libcst`, where it is installed, to write
a patch for a failing example. That import emits a DeprecationWarning from
one of libcst's own dependencies, and under `-W error` the warning is raised
inside the plugin's report hook: pytest then stops with an INTERNALERROR
instead of reporting the failure and running the remaining tests. Importing
libcst once here, with only DeprecationWarning ignored and only for that
import, leaves it cached for the plugin; no warning of qzsg is silenced.
"""

import importlib.util
import warnings

if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401
