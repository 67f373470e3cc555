"""Build tooling for the optional compiled engine.

One artifact, one command (see :mod:`repro.compiled` for how the built
extension is discovered and selected at runtime)::

    python -m repro.compiled.build             # build the C core in place
    python -m repro.compiled.build --status    # report what's built/active
    python -m repro.compiled.build --clean     # remove the built artifact

The C core needs only a C compiler and the CPython headers.  The
artifact lands in-place next to this file, so a source checkout picks
it up on the next import with zero configuration.

``pip install`` integration: ``REPRO_BUILD_COMPILED=1 pip install -e .``
routes through :func:`extensions_for_setup` in ``setup.py`` and builds
the same artifact during install.  A plain ``pip install -e .`` never
compiles anything — pure Python works with zero build steps.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sysconfig
from pathlib import Path
from typing import List, Optional

__all__ = [
    "PACKAGE_DIR",
    "build_cext",
    "clean",
    "extensions_for_setup",
    "main",
]

PACKAGE_DIR = Path(__file__).resolve().parent
_SOURCE = PACKAGE_DIR / "_core.c"

_OFF = ("", "0", "off", "false", "no")
_ON = ("1", "on", "true", "yes")


def _artifacts() -> List[Path]:
    return sorted(PACKAGE_DIR.glob("_core*.so")) + sorted(
        PACKAGE_DIR.glob("_core*.pyd")
    )


def _extension(source: str):
    from setuptools import Extension

    return Extension("repro.compiled._core", sources=[source])


def build_cext(verbose: bool = False) -> Path:
    """Compile the hand-written C core in place; return the artifact."""
    import tempfile

    from setuptools import Distribution

    if not _SOURCE.exists():
        raise FileNotFoundError(f"missing C source {_SOURCE}")
    dist = Distribution(
        {
            "name": "repro-compiled",
            "ext_modules": [_extension(str(_SOURCE))],
            "package_dir": {"": str(PACKAGE_DIR.parent.parent)},
        }
    )
    with tempfile.TemporaryDirectory(prefix="repro-compiled-build-") as tmp:
        cmd = dist.get_command_obj("build_ext")
        cmd.inplace = True
        cmd.build_temp = tmp
        cmd.build_lib = str(Path(tmp) / "lib")
        cmd.verbose = verbose
        cmd.ensure_finalized()
        cmd.run()
    out = PACKAGE_DIR / f"_core{sysconfig.get_config_var('EXT_SUFFIX') or '.so'}"
    if not out.exists():
        built = _artifacts()
        if not built:
            raise RuntimeError("build_ext reported success but no _core artifact found")
        out = built[-1]
    return out


def clean() -> List[Path]:
    """Remove every built artifact; return what was removed."""
    removed: List[Path] = []
    for path in _artifacts():
        path.unlink()
        removed.append(path)
    build_dir = PACKAGE_DIR / "build"
    if build_dir.is_dir():
        shutil.rmtree(build_dir)
        removed.append(build_dir)
    return removed


def extensions_for_setup() -> list:
    """Extension list for ``setup.py`` under ``REPRO_BUILD_COMPILED``.

    On (``1``/``on``/``true``/``yes``) → the hand-written C core; off
    (unset/``0``/``off``/``false``/``no``) → no extensions, so
    pure-Python installs stay build-free.
    """
    value = os.environ.get("REPRO_BUILD_COMPILED", "").strip().lower()
    if value in _OFF:
        return []
    if value not in _ON:
        raise ValueError(f"REPRO_BUILD_COMPILED={value!r}: use 0 or 1")
    cwd = Path.cwd()
    source = _SOURCE.relative_to(cwd) if _SOURCE.is_relative_to(cwd) else _SOURCE
    return [_extension(str(source))]


def _print_status() -> int:
    from . import active_tier, reset, status

    reset()
    st = status()
    print(f"artifact : {'present' if st.available else 'absent'}")
    print(f"tier     : {st.tier or '-'}")
    if st.error:
        print(f"error    : {st.error}")
    print(f"active   : {active_tier() or 'pure-python'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.compiled.build``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiled.build",
        description="Build the optional compiled engine (C core) in place.",
    )
    parser.add_argument("--clean", action="store_true", help="remove built artifacts")
    parser.add_argument("--status", action="store_true", help="report build/activation state")
    parser.add_argument("--verbose", action="store_true", help="show compiler output")
    args = parser.parse_args(argv)

    if args.status:
        return _print_status()
    if args.clean:
        for path in clean():
            print(f"removed {path}")
        return 0
    out = build_cext(verbose=args.verbose)
    print(f"built {out}")
    print("verify with: python -m repro.compiled.build --status")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
