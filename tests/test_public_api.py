"""Meta-tests on the public API surface.

These keep the package honest as it grows: everything advertised in an
``__all__`` must exist and be importable, every public module and every
public callable must carry a docstring, and the top-level namespace must
not silently drop the names the README teaches.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PUBLIC_MODULES = [
    m.name
    for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith("__main__")
]


def test_top_level_all_is_complete_and_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ advertises missing {name!r}"


def test_readme_taught_names_exist():
    taught = [
        "Session",
        "WhatIfReport",
        "StreamingMetrics",
        "ExecConfig",
        "set_default_executor",
        "CTCGenerator",
        "SDSCGenerator",
        "EasyScheduler",
        "ConservativeScheduler",
        "SelectiveScheduler",
        "SJFPriority",
        "scale_load",
        "apply_estimates",
        "simulate",
        "read_swf",
        "GridSimulator",
        "PreemptiveSimulator",
        "AdvanceReservation",
        "DepthScheduler",
        "Cell",
        "CellExecutor",
        "ResultStore",
        "run_cells",
        "WorkloadSpec",
    ]
    for name in taught:
        assert name in repro.__all__, f"{name} missing from repro.__all__"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_every_advertised_name_exists_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    advertised = getattr(module, "__all__", [])
    for name in advertised:
        assert hasattr(module, name), f"{module_name}.__all__ advertises {name!r}"
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # Re-exports are documented at their definition site.
            if getattr(obj, "__module__", module_name) == module_name:
                assert inspect.getdoc(obj), (
                    f"{module_name}.{name} is public but undocumented"
                )


def test_exception_hierarchy_is_rooted():
    from repro import errors

    for name in errors.__dict__:
        obj = getattr(errors, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError) or obj is errors.ReproError


def test_scheduler_registry_matches_exports():
    from repro.experiments.runner import SCHEDULER_KINDS, make_scheduler

    for kind in SCHEDULER_KINDS:
        scheduler = make_scheduler(kind)
        assert scheduler.describe()


def test_serve_surface_is_pinned():
    """The serve package's advertised session API: these names are what
    README/TUTORIAL teach, so renaming any of them is a breaking change."""
    from repro import serve

    expected = {
        "Session",
        "SessionBranch",
        "SessionSnapshot",
        "SessionStats",
        "WhatIfReport",
        "QueueForecast",
        "JobForecast",
        "RunningJob",
        "make_server",
        "serve_forever",
    }
    assert expected <= set(serve.__all__)
    for method in ("submit", "advance", "snapshot", "what_if", "queue_forecast"):
        assert callable(getattr(serve.Session, method)), (
            f"Session.{method} is part of the advertised session API"
        )
