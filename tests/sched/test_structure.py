"""Structure gates: one implementation per idea in the scheduling layer.

Source-level assertions (plain ``pathlib`` + ``re``, nothing executed)
that keep the reservation family on its one replanning core, the EASY
pass free of its retired memo and copies, and the float tolerances in
their one module — source greps kept as tests, where they cannot rot.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SCHED = SRC / "sched"
BACKFILL = SCHED / "backfill"
KERNEL = SCHED / "profile.py"


def _sources(root: Path) -> dict[Path, str]:
    return {path: path.read_text() for path in sorted(root.rglob("*.py"))}


def _files_calling(call: str, sources: dict[Path, str]) -> dict[str, int]:
    """``{file name: occurrences of `.call(`}``, definitions excluded."""
    hits = {path.name: text.count(f".{call}(") for path, text in sources.items()}
    return {name: count for name, count in hits.items() if count}


def test_disciplines_replan_only_through_the_planning_core():
    backfill = _sources(BACKFILL)
    assert backfill, f"no sources under {BACKFILL}"
    for path, text in backfill.items():
        assert "rebuild_into(" not in text, f"{path.name} rebuilds a profile itself"
        assert "_profile_buffer" not in text, f"{path.name} keeps a private buffer"

    outside_kernel = {
        path: text for path, text in _sources(SCHED).items() if path != KERNEL
    }
    # rebuild → carve → claim_many exists once, and so does the prefilter
    # of the partial-reservation pass.
    assert _files_calling("rebuild_into", outside_kernel) == {"plan.py": 1}
    assert _files_calling("claim_many", outside_kernel) == {"plan.py": 1}
    assert _files_calling("min_free_many", outside_kernel) == {"plan.py": 1}


def test_profiles_are_created_by_the_core_and_conservatives_persistent_one():
    hits = _files_calling("profile_factory", _sources(SCHED))
    assert hits == {"plan.py": 1, "conservative.py": 1}
    text = (BACKFILL / "conservative.py").read_text()
    method = re.search(r"    def _profile_at\(.*?(?=\n    def )", text, re.DOTALL)
    assert method is not None and "self.profile_factory(" in method.group(0)


def test_easy_pass_keeps_no_memo_and_copies_nothing():
    sources = _sources(SRC)
    for path, text in sources.items():
        assert "_shadow_cache" not in text, f"{path.name} keeps a shadow memo"
    # Dynamic orders are checked in one place; preempt/scheduler.py is the
    # suspension engine's own pass.
    sorts = {
        str(path.relative_to(SRC)): text.count(".priority.sort(")
        for path, text in sources.items()
        if ".priority.sort(" in text
    }
    assert sorts == {"sched/base.py": 1, "preempt/scheduler.py": 1}
    for name in ("easy.py", "lookahead.py"):
        assert ".pop(0)" not in (BACKFILL / name).read_text(), name


def test_tolerances_are_defined_only_in_tol():
    literal = re.compile(r"^_?EPS\w* *= *[-+.\d]", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path, text in _sources(SRC).items()
        if path != SCHED / "tol.py" and literal.search(text)
    ]
    assert offenders == []
    assert len(literal.findall((SCHED / "tol.py").read_text())) == 2
