"""Import guards: every module imports first, each entry point loads only
what it runs, and the packages' lazily resolved exports are the same
surface as eager imports would give.

Every check runs in a fresh interpreter: the test process itself has
long since imported everything.
"""

import json
import pathlib
import subprocess
import sys


def run_python(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: Every check script starts here: the modules under ``src/repro`` and
#: a way to import one into an interpreter holding no ``repro`` module.
PRELUDE = """
import importlib, json, pkgutil, sys, traceback, types
import repro
INFOS = [info for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if info.name != "repro.__main__"]
NAMES = ["repro"] + [info.name for info in INFOS]
PACKAGES = ["repro"] + [info.name for info in INFOS if info.ispkg]

def fresh(name):
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    return importlib.import_module(name)
"""

FIRST_IMPORT = PRELUDE + """
failed = {}
for name in NAMES:
    try:
        fresh(name)
    except Exception:
        failed[name] = traceback.format_exc()
print(json.dumps({"modules": len(NAMES), "failed": failed}))
"""


def test_every_module_imports_first():
    """Each module imports into an interpreter holding no ``repro``
    module, so no entry point depends on another having run first (an
    import cycle shows here as a partly initialised module)."""
    result = run_python(FIRST_IMPORT)
    assert result["failed"] == {}, "\n".join(result["failed"].values())
    assert result["modules"] > 100


def loaded_by(code: str):
    return set(run_python(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def under(modules, packages):
    return sorted(name for name in modules for package in packages
                  if name == package or name.startswith(package + "."))


#: benchmarks/ledger/sim_child.py's imports
SIM_CHILD = ("from repro import Cluster, FixedRateWorkload\n"
             "from repro.fastsim import FastCluster")

#: benchmarks/ledger/serve_child.py's imports
SERVE_CHILD = """
from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig
from repro.aio.supervisor import ClusterSupervisor
from repro.wire.server import LockServiceServer
from repro.wire.smoke import service_config
from repro.wire.transport import WireTransport
"""

CLI_HELP = """
import contextlib, io
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        repro.cli.main(["--help"])
    except SystemExit:
        pass
"""


class TestEntryPointsLoadWhatTheyRun:
    def test_the_simulation_child(self):
        modules = loaded_by(SIM_CHILD)
        assert "asyncio" not in modules
        assert under(modules, [
            "repro.trs", "repro.specs", "repro.fuzz", "repro.aio",
            "repro.wire", "repro.verify", "repro.analysis", "repro.apps",
            "repro.fabric", "repro.lint.registry"]) == []

    def test_the_service_child(self):
        modules = loaded_by(SERVE_CHILD)
        assert under(modules, [
            "repro.trs", "repro.specs", "repro.fuzz", "repro.verify",
            "repro.analysis", "repro.apps", "repro.fabric",
            "repro.fastsim"]) == []

    def test_the_fabric_verb(self):
        """``repro fabric`` imports :mod:`repro.fabric` and runs a
        :class:`TokenFabric` on the object cores: neither the compiled
        engine nor the asyncio runtime is on its path."""
        modules = loaded_by("import repro.fabric")
        assert "asyncio" not in modules
        assert under(modules, ["repro.fastsim", "repro.aio"]) == []

    def test_cli_help(self):
        modules = loaded_by(CLI_HELP)
        assert "asyncio" not in modules
        assert under(modules, ["repro.trs", "repro.specs", "repro.fuzz"]) == []


#: The ledger's children wrap the seams of each layer by name.
LEDGER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"

LEDGER_SEAMS = """
import json, sys
sys.path.insert(0, LEDGER)
import serve_child, sim_child, spans
report = {}
for child in (sim_child, serve_child):
    tracer = spans.Tracer()
    child.install_wrappers(tracer)
    seams = [(owner, attr) for owner, attr, _ in tracer._undo]
    tracer.unwrap_all()
    report[child.__name__] = {
        "wrapped": len(seams),
        "left_wrapped": [attr for owner, attr in seams
                         if hasattr(getattr(owner, attr), "__wrapped__")]}
print(json.dumps(report))
"""


def test_the_ledger_wraps_seams_that_exist():
    """Both ledger children install their span wrappers and take them off
    again: a renamed seam (``NodeDriver._apply``, ``Network.send``,
    ``WireTransport.send``, ...) fails here, not only in a traced ledger
    run."""
    report = run_python(f"LEDGER = {str(LEDGER)!r}\n" + LEDGER_SEAMS)
    assert set(report) == {"sim_child", "serve_child"}
    for child in report.values():
        assert child["wrapped"] > 5
        assert child["left_wrapped"] == []


EXPORTS = PRELUDE + """
report = {}
for package_name in PACKAGES:
    package = fresh(package_name)
    if "__getattr__" not in vars(package):
        continue
    problems = []
    listed = dir(package)
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    problems += [f"{name}: also a submodule"
                 for name in sorted(set(package.__all__) & submodules)]
    for name in package.__all__:
        if name not in listed:
            problems.append(f"{name}: not in dir()")
        value = getattr(package, name)
        if vars(package).get(name) is not value:
            problems.append(f"{name}: not a plain attribute after first use")
        if isinstance(value, types.ModuleType):
            problems.append(f"{name}: a module")
        origin = sys.modules.get(getattr(value, "__module__", None) or "")
        if isinstance(value, (type, types.FunctionType)) and not (
                origin is not None
                and origin.__name__.startswith(package.__name__)
                and getattr(origin, name, value) is value):
            problems.append(f"{name}: not the object {value.__module__} defines")
    report[package_name] = problems
print(json.dumps(report))
"""


def test_lazy_exports_are_the_eager_surface():
    """Every package that resolves names on first use: each ``__all__``
    name is listed by ``dir()`` before it resolves, resolves to its
    defining module's object, is a plain attribute afterwards, and is not
    also the name of a submodule."""
    report = run_python(EXPORTS)
    assert set(report) >= {"repro", "repro.aio", "repro.core",
                           "repro.fastsim", "repro.lint", "repro.metrics",
                           "repro.sim", "repro.wire"}
    assert {package: problems for package, problems in report.items()
            if problems} == {}


#: What ``from repro import *`` bound before the package went lazy.
STAR_NAMES = [
    "AioCluster", "BinarySearchCore", "BurstyWorkload",
    "ClosedLoopKeyedWorkload", "Cluster", "DirectedSearchCore",
    "FairnessAuditor", "FaultTolerantCore", "FixedRateWorkload",
    "HotspotWorkload", "HybridCore", "KeyedMetricsRegistry",
    "LinearSearchCore", "MembershipService", "MessageCounters",
    "ProtocolConfig", "PushCore", "ResponsivenessTracker", "RingCore",
    "RingView", "RoundRobinScheduler", "SaturatedWorkload",
    "SimMutex", "SingleShotWorkload", "StabilizingCore", "TokenFabric",
    "TotalOrderBroadcast", "UniformIntervalWorkload", "__version__",
]


def test_star_import_binds_the_same_names():
    bound = run_python(
        "import json\nnamespace = {}\nexec('from repro import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))")
    assert bound == sorted(STAR_NAMES)
