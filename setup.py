"""Setuptools shim; all metadata lives in pyproject.toml.

Kept so that ``pip install -e .`` works on environments whose setuptools
lacks the ``wheel`` package (legacy editable installs go through
``setup.py develop``), and to host the optional compiled-engine build:

    pip install -e .                         # pure Python, zero build steps
    REPRO_BUILD_COMPILED=1 pip install -e .  # + hand-written C core

See docs/PERFORMANCE.md ("Building the compiled engine") and
``python -m repro.compiled.build`` for in-place builds without
reinstalling.
"""

import os
import sys

from setuptools import setup

ext_modules = []
if os.environ.get("REPRO_BUILD_COMPILED", "").strip().lower() not in (
    "",
    "0",
    "off",
    "false",
    "no",
):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))
    from repro.compiled.build import extensions_for_setup

    ext_modules = extensions_for_setup()

setup(ext_modules=ext_modules)
