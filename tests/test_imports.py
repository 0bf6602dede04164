"""Import budgets: each entry point loads only the layers it runs.

Every check runs in a fresh interpreter, since this process has long
since imported everything. A probe script prints the names it finds in
``sys.modules`` on its last line of standard output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
# The timing model and what only it needs.
TIMING = ("numpy", "repro.sim", "repro.fastpath.compiled", "repro.fastpath.engine",
          "repro.evalx", "repro.workloads", "repro.mem.bus", "repro.mem.cache")
REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def loaded_by(script: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", script + REPORT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def cli(*argv: str) -> str:
    """Run ``python -m repro *argv`` as ``-m`` does, exiting or not."""
    return (f"import runpy, sys\nsys.argv = ['repro', *{list(argv)!r}]\n"
            "try:\n    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
            "except SystemExit:\n    pass\n")


def test_a_functional_machine_under_a_kernel_loads_no_timing_model():
    modules = loaded_by(
        "from repro.api import IntegrityError, Kernel, build_machine\n"
        "machine = build_machine('aise+bmt', physical_bytes=16 * 4096,\n"
        "                        swap_bytes=64 * 4096)\n"
        "kernel = Kernel(machine, swap_slots=64)\n"
        "pid = kernel.create_process('p').pid\n"
        "kernel.mmap(pid, 0x10000, 2)\n"
        "kernel.write(pid, 0x10040, b'x' * 64)\n"
        "assert kernel.read(pid, 0x10040, 64) == b'x' * 64\n")
    assert "repro.osmodel.kernel" in modules and "repro.core.machine" in modules
    assert not modules & set(TIMING)


@pytest.mark.parametrize("script", [
    "import repro.service.client\n",
    cli("submit", "--help"),
    cli("submit", "status", "--help"),
])
def test_the_service_client_loads_no_numpy_and_no_machine(script):
    modules = loaded_by(script)
    assert "numpy" not in modules
    assert "repro.core" not in modules


def test_help_loads_no_simulator():
    modules = loaded_by(cli("--help"))
    assert not modules & set(TIMING)
    assert "repro.core" not in modules


def test_import_repro_loads_no_layer():
    modules = loaded_by("import repro\n")
    assert not [name for name in modules
                if name.startswith("repro.") and name != "repro._lazy"]


@pytest.mark.parametrize("package", ["repro", "repro.api"])
def test_every_public_name_resolves(package):
    modules = loaded_by(
        f"import importlib\npackage = importlib.import_module({package!r})\n"
        "missing = [name for name in package.__all__ if getattr(package, name, None) is None]\n"
        "assert not missing, missing\n"
        f"exec('from {package} import *')\n")
    assert "repro.sim.simulator" in modules


def test_the_lazy_engine_choice_is_the_engine_modules():
    from repro import fastpath
    from repro.fastpath import engine

    assert fastpath.execute is engine.execute
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fastpath.nonexistent  # noqa: B018


def test_aes_tables_are_built_on_first_use():
    loaded_by("import repro.crypto.aes as aes\n"
              "assert 'SBOX' not in vars(aes)\n"
              "aes.AES(bytes(16))\n"
              "assert 'SBOX' in vars(aes) and '_MUL14' in vars(aes)\n")


def test_the_memory_package_serves_bus_and_cache_on_first_use():
    loaded_by("import sys\nimport repro.mem as mem\n"
              "assert 'repro.mem.bus' not in sys.modules\n"
              "assert mem.MemoryBus.__module__ == 'repro.mem.bus'\n"
              "assert mem.SetAssociativeCache.__module__ == 'repro.mem.cache'\n"
              "exec('from repro.mem import *')\n")


@pytest.mark.parametrize("entry", ["repro.schemes", "repro.core.storage"])
def test_the_scheme_registry_imports_first(entry):
    """The registry imports ``repro.core``, whose machine and storage
    model read the registry back: each must work as a fresh
    interpreter's first import."""
    modules = loaded_by(
        f"import {entry}\nfrom repro.schemes import encryption_scheme\n"
        "assert encryption_scheme('aise').uses_counter_cache\n")
    assert "repro.core.machine" in modules
