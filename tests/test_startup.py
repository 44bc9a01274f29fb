"""Which modules each command-line call loads.

Each case runs a fresh interpreter with -X importtime, which lists every
module the process imports, and checks the names only; nothing is
timed.  A module that a bare interpreter already loads (for instance
from a site .pth file) is not the package's doing, so it is left out of
the comparison.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncpseq

SLOW = {"dataclasses", "json"}
CHECKS = {"ncpseq.verify", "ncpseq.oracles"}
KERNELS = {"ncpseq._backend", "ncpseq._kernels_py"}
DRAWING = {"ncpseq.render", "ncpseq.bijection"}

# (argv, stdout, modules the call must not load)
CALLS = [
    (("map", "1"), "\n", SLOW | CHECKS | KERNELS | {"ncpseq.render"}),
    (("invert", "1"), "1,3|2\n", SLOW | CHECKS | KERNELS | {"ncpseq.render"}),
    (("render", "1"), "1\n", SLOW | CHECKS | KERNELS),
    (("enumerate", "--n", "0"), "1\n", SLOW | DRAWING | {"ncpseq.verify"}),
    (
        ("enumerate", "--n", "0", "--kind", "sequences"),
        "\n",
        SLOW | CHECKS | DRAWING | {"ncpseq.partitions"},
    ),
]


def _loaded(*args: str, env: dict | None = None) -> tuple[set[str], subprocess.CompletedProcess]:
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return names, res


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return _loaded("-c", "pass")[0]


def test_importing_the_package_loads_none_of_its_modules(bare):
    names, res = _loaded("-c", "import ncpseq; print(ncpseq.__version__)")
    assert (res.returncode, res.stdout) == (0, "0.1.0\n")
    assert "ncpseq" in names
    assert {m for m in names - bare if m.startswith("ncpseq.")} == set()


@pytest.mark.parametrize("argv, stdout, absent", CALLS, ids=[" ".join(c[0]) for c in CALLS])
def test_module_route_loads_only_what_the_subcommand_runs(bare, argv, stdout, absent):
    names, res = _loaded("-m", "ncpseq", *argv)
    assert (res.returncode, res.stdout) == (0, stdout)
    assert "ncpseq.cli" in names
    assert absent & (names - bare) == set()


@pytest.mark.parametrize("argv, stdout, absent", CALLS, ids=[" ".join(c[0]) for c in CALLS])
def test_console_script_route_loads_only_what_the_subcommand_runs(bare, argv, stdout, absent):
    # What the ncpseq console script runs: ncpseq.cli:main.
    code = f"import sys; from ncpseq.cli import main; sys.exit(main({list(argv)!r}))"
    names, res = _loaded("-c", code)
    assert (res.returncode, res.stdout) == (0, stdout)
    assert absent & (names - bare) == set()


@pytest.mark.parametrize("argv, stdout", [c[:2] for c in CALLS[:2]], ids=["map 1", "invert 1"])
def test_map_and_invert_load_no_typing_without_site(argv, stdout):
    # -S runs no site module, whose .pth files may load typing anyway;
    # the package is then found through PYTHONPATH alone.
    env = {**os.environ, "PYTHONPATH": str(Path(ncpseq.__file__).resolve().parent.parent)}
    bare, _ = _loaded("-S", "-c", "pass", env=env)
    names, res = _loaded("-S", "-m", "ncpseq", *argv, env=env)
    assert (res.returncode, res.stdout) == (0, stdout)
    assert "typing" not in bare | names
