"""Package surface and lazy imports: what ``import hilfer_dfc`` binds and loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilfer_dfc
from hilfer_dfc import cli, grid, mittag_leffler, operators, solvers, stability, transforms, verification

SURFACE_MODULES = (grid, operators, mittag_leffler, transforms, solvers, stability)


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter; return its last stdout line, parsed as JSON."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPublicSurface:
    def test_all_is_the_union_of_the_module_surfaces(self):
        expected = ["__version__", *(name for module in SURFACE_MODULES for name in module.__all__)]
        assert hilfer_dfc.__all__ == expected

    def test_each_name_is_the_defining_modules_object(self):
        for module in SURFACE_MODULES:
            for name in module.__all__:
                assert getattr(hilfer_dfc, name) is getattr(module, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from hilfer_dfc import *", namespace)
        assert [name for name in hilfer_dfc.__all__ if name not in namespace] == []

    def test_dir_lists_every_name(self):
        assert set(hilfer_dfc.__all__) <= set(dir(hilfer_dfc))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hilfer_dfc.no_such_name  # noqa: B018
        assert not hasattr(hilfer_dfc, "no_such_name")

    # in a fresh interpreter each of these is the first read of the
    # package, so it goes through the lazy path
    @pytest.mark.parametrize(
        "code",
        [
            "from hilfer_dfc import *\nimport hilfer_dfc\n"
            "missing = [n for n in hilfer_dfc.__all__ if n not in globals()]",
            "import hilfer_dfc\nlisted = dir(hilfer_dfc)\n"
            "missing = [n for n in hilfer_dfc.__all__ if n not in listed]",
            "import hilfer_dfc\nmissing = [n for n in ('Grid', 'solve', 'ulam_experiment')\n"
            "           if not hasattr(hilfer_dfc, n)]",
        ],
        ids=["star-import", "dir", "attribute"],
    )
    def test_first_read_in_a_fresh_interpreter(self, code):
        assert run_fresh(code + "\nimport json\nprint(json.dumps(missing))") == []


class TestLibraryErrors:
    def test_every_error_class_derives_from_the_one_base(self):
        # cli.main exits 2 on LibraryError; the CLI's own ConfigError is a
        # ValueError, which exits 2 as well.  Each class keeps its builtin
        # base, so callers that catch ValueError or ArithmeticError still do
        defined = {
            obj for module in (*SURFACE_MODULES, verification, cli) for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        }
        builtin = {
            "OffGridError": ValueError, "CoverageError": ValueError,
            "SingularGammaError": ArithmeticError, "SeriesConvergenceError": RuntimeError,
            "ContourError": ArithmeticError, "RegressivityError": ValueError,
            "TransformDomainError": ValueError, "TruncationError": RuntimeError,
            "NonFiniteError": ArithmeticError,
        }
        errors = defined - {cli.ConfigError, grid.LibraryError}
        assert sorted(error.__name__ for error in errors) == sorted(builtin)
        for error in errors:
            assert issubclass(error, grid.LibraryError) and issubclass(error, builtin[error.__name__])
            assert getattr(hilfer_dfc, error.__name__) is error
        assert hilfer_dfc.LibraryError is grid.LibraryError


_LOADED = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from hilfer_dfc import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    import hilfer_dfc
    code = 0
loaded = sorted(name.split(".", 1)[1] for name in sys.modules if name.startswith("hilfer_dfc."))
print(json.dumps({"code": code, "loaded": loaded, "logging": "logging" in sys.modules}))
"""

_ML = ["cli", "grid", "mittag_leffler"]
_SOLVE = [*_ML, "operators", "solvers"]


class TestLazyImports:
    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], []),
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "3"], _ML),
            (["laplace", "--y", "2"], ["cli", "grid", "operators", "transforms"]),
            (["solve", "--linear", "--lambda", "0.2", "--mu", "0.5", "--steps", "20"], _SOLVE),
            (["figures", "--steps", "10"], _SOLVE),
            (["bound", "--a", "0.3", "--T", "9.3", "--mu", "0.7", "--K", "0.1"], [*_SOLVE, "stability"]),
            (
                ["verify", "--only", "laplace"],
                [*_SOLVE, "stability", "transforms", "verification"],
            ),
        ],
        ids=["import", "ml", "laplace", "solve", "figures", "bound", "verify"],
    )
    def test_each_subcommand_loads_only_its_modules(self, argv, loaded, tmp_path):
        if argv and argv[0] in ("solve", "figures", "verify"):
            argv = [*argv, "--out", str(tmp_path)]
        # no call enables logging, so none pays for importing it
        expect = {"code": 0, "loaded": sorted(loaded), "logging": False}
        assert run_fresh(_LOADED, json.dumps(argv)) == expect

    def test_a_library_error_of_a_loaded_module_exits_two(self):
        # main catches the library's base class, which loads with grid
        argv = ["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "3.5"]
        assert run_fresh(_LOADED, json.dumps(argv)) == {"code": 2, "loaded": _ML, "logging": False}
