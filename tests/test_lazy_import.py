"""The package root and the CLI import lazily: start-up loads no layer and
no numpy until a name or a verb needs it."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import ulam_moments

OWNERS = {
    "exact_core": ("a_array", "b_coefficient", "first_moment", "second_moment"),
    "genfun": ("alpha_contour", "alpha_series"),
    "elliptic_engine": ("alpha_closed", "elliptic_K"),
    "perm_oracle": ("count_increasing", "lis_length", "z_distribution"),
    "walk_lab": ("a_from_walk_exact", "a_monte_carlo", "polya_series"),
}
HEAVY = ("numpy", "ulam_moments.genfun", "ulam_moments.elliptic_engine", "ulam_moments.walk_lab")


def _fresh(code: str):
    """Run code in a new interpreter; return the JSON on its last stdout line."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=240)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_all_lists_the_reexported_names() -> None:
    want = {name for names in OWNERS.values() for name in names} | {"__version__"}
    assert sorted(ulam_moments.__all__) == sorted(want)


def test_each_name_is_its_owning_modules_object_from_a_cold_start() -> None:
    probe = (
        "import importlib, json, ulam_moments\n"
        f"owners = {OWNERS!r}\n"
        "print(json.dumps([name for mod, names in owners.items() for name in names\n"
        "                  if getattr(ulam_moments, name)\n"
        "                  is not getattr(importlib.import_module('ulam_moments.' + mod), name)]))"
    )
    assert _fresh(probe) == []


def test_star_import_binds_every_name() -> None:
    probe = (
        "import json\n"
        "from ulam_moments import *\n"
        "import ulam_moments\n"
        "print(json.dumps([n for n in ulam_moments.__all__ if n not in globals()]))"
    )
    assert _fresh(probe) == []


def test_unknown_name_is_an_attribute_error() -> None:
    with pytest.raises(AttributeError, match="nope"):
        ulam_moments.nope  # noqa: B018
    assert not hasattr(ulam_moments, "nope")


def test_dir_lists_names_and_layers() -> None:
    listed = set(dir(ulam_moments))
    assert set(ulam_moments.__all__) <= listed
    assert set(OWNERS) | {"bounds", "cli"} <= listed


def test_layers_load_on_attribute_access() -> None:
    probe = (
        "import json, sys, ulam_moments\n"
        "before = 'ulam_moments.bounds' in sys.modules\n"
        "mod = ulam_moments.bounds\n"
        "print(json.dumps([before, mod is sys.modules['ulam_moments.bounds']]))"
    )
    assert _fresh(probe) == [False, True]


def test_startup_verbs_load_no_numpy_and_no_float_layer() -> None:
    """table, --help and a usage error run on exact_core and argparse alone;
    mc, which needs walk_lab, does load numpy, so the check is not vacuous."""
    probe = (
        "import contextlib, io, json, sys\n"
        "import ulam_moments\n"
        "import ulam_moments.cli as cli\n"
        f"heavy = {HEAVY!r}\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            return cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            return exc.code\n"
        "codes = [run(a) for a in (['table', '--A'], ['table', '--moments'], ['--help'],\n"
        "                          ['table', '--A', '--no-such-flag'])]\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "codes.append(run(['mc', '--N', '2', '--j', '1', '--samples', '10', '--seed', '1']))\n"
        "print(json.dumps([codes, loaded, 'numpy' in sys.modules]))"
    )
    codes, loaded, numpy_after_mc = _fresh(probe)
    assert codes == [0, 0, 0, 64, 0]
    assert loaded == []
    assert numpy_after_mc


def test_every_verify_row_passes_in_a_fresh_interpreter() -> None:
    """The SUITES rows find their routes when they run, not through main()."""
    probe = (
        "import json, ulam_moments.cli as cli\n"
        "for suite, rows in cli.SUITES.items():\n"
        "    for name, *check in rows:\n"
        "        cli._check(*check)\n"
        "print(json.dumps(sorted(cli.SUITES)))"
    )
    assert _fresh(probe) == sorted(["exact_core", "perm_oracle", "walk_lab", "genfun",
                                    "elliptic_engine", "bounds"])
