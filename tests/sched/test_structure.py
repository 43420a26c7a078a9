"""Structure gates: one implementation per idea in the package.

Source-level assertions (plain ``pathlib``, ``re`` and ``ast``, nothing
executed) that keep the reservation family on its one replanning core,
the EASY pass free of its retired memo and copies, the float tolerances
named once and read by name in the extension engines, the workload layer
on one SWF reader and one body per transform, the streaming metrics sink
without modes, and the lower layers free of module-level imports from
the upper ones — source greps kept as tests, where they cannot rot.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SCHED = SRC / "sched"
BACKFILL = SCHED / "backfill"
KERNEL = SCHED / "profile.py"
WORKLOAD = SRC / "workload"
METRICS = SRC / "metrics"


def _sources(root: Path) -> dict[Path, str]:
    return {path: path.read_text() for path in sorted(root.rglob("*.py"))}


def _parameters(text: str, header: str) -> str:
    """The parameter list of the first ``def`` whose line starts ``header``."""
    match = re.search(rf"{re.escape(header)}\((.*?)\)\s*->", text, re.DOTALL)
    assert match is not None, header
    return match.group(1)


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
    assert ".pop(0)" not in (BACKFILL / "easy.py").read_text()


def test_tolerances_are_defined_only_in_tol():
    literal = re.compile(r"^_?EPS\w* *= *[-+.\d]", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path, text in _sources(SRC).items()
        if path != SCHED / "tol.py" and literal.search(text)
    ]
    assert offenders == []
    assert len(literal.findall((SCHED / "tol.py").read_text())) == 2


def test_record_check_tolerances_are_named_once():
    # metrics/defs.py defines the record-check tolerances (ROADMAP item
    # 1(e)); collector.py's two record checks, the row check in
    # CompletedJob.__post_init__ and its column form in RecordTable, which
    # the result store's decoder constructs, read the same three names.
    defs = (METRICS / "defs.py").read_text()
    defined = dict(re.findall(r"^(\w+_TOL) = (\S+)$", defs, re.MULTILINE))
    assert defined == {
        "START_TOL": "1e-9",
        "FINISH_REL_TOL": "1e-9",
        "FINISH_ABS_TOL": "1e-6",
    }
    collector = (METRICS / "collector.py").read_text()
    assert not re.search(r"^\w+_TOL = ", collector, re.MULTILINE)
    cls = collector[collector.index("class CompletedJob"):]
    row_check = cls[: cls.index("    @classmethod")]
    column_check = collector[collector.index("class RecordTable"):]
    column_check = column_check[: column_check.index("    def __len__")]
    for body in (row_check, column_check):
        assert not re.search(r"\d(e-|\.\d)", body), body
        for name in defined:
            assert name in body
    serialize = (SRC / "exec" / "serialize.py").read_text()
    assert "RecordTable(" in serialize
    assert not re.search(r"\de-\d", serialize)


def test_extension_engines_compare_times_through_named_tolerances():
    # ROADMAP item 1(e): the preemptive package, the grid engine, the
    # simulator's backwards-clock check, the machine's accounting, the
    # per-job metric definitions and the schedule validator read EPS_SNAP
    # and the record tolerances by name. defs.py's own definitions of
    # those names are the only literals; a redefinition anywhere else
    # is an offender.
    defs = METRICS / "defs.py"
    paths = sorted((SRC / "preempt").glob("*.py")) + [
        SRC / "grid" / "engine.py",
        SRC / "sim" / "engine.py",
        SRC / "cluster" / "machine.py",
        defs,
        SCHED / "validate.py",
    ]
    assert len(paths) > 1
    definitions = re.compile(r"^(START|FINISH_REL|FINISH_ABS)_TOL = .*$", re.MULTILINE)

    def scanned(path):
        text = path.read_text()
        return definitions.sub("", text) if path == defs else text

    offenders = [
        f"{path.relative_to(SRC)}: {literal}"
        for path in paths
        for literal in re.findall(r"\de-\d", scanned(path))
    ]
    assert offenders == []

#: Layers below the experiment harness, and the packages above them.
LOWER_LAYERS = ("workload", "sim", "sched", "metrics", "cluster")
UPPER_LAYERS = ("analysis", "experiments", "exec", "serve", "cli")


def _module_level_imports(tree: ast.Module):
    """Imports that run when the module does: the module body, and the
    ``if``/``try`` blocks in it, except ``if TYPE_CHECKING:``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                pending.extend(block)
            for handler in node.handlers:
                pending.extend(handler.body)


def test_lower_layers_import_no_upper_layer_at_module_level():
    upper = tuple(f"repro.{name}" for name in UPPER_LAYERS)
    offenders = []
    for layer in LOWER_LAYERS:
        for path, text in _sources(SRC / layer).items():
            for node in _module_level_imports(ast.parse(text)):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    names = [alias.name for alias in node.names]
                for name in names:
                    if name in upper or name.startswith(tuple(f"{u}." for u in upper)):
                        offenders.append(f"{path.relative_to(SRC)}: {name}")
    assert offenders == []


def test_workload_layer_has_one_reader_and_one_body_per_transform():
    for path, text in _sources(WORKLOAD).items():
        for twin in ("_read_stream", "_job_from_fields", ".apply(job"):
            assert twin not in text, f"{path.name} keeps {twin}"
    for name in ("estimates.py", "transforms.py"):
        assert "NotImplementedError" not in (WORKLOAD / name).read_text(), name
    swf = (WORKLOAD / "swf.py").read_text()
    assert "engine" not in _parameters(swf, "def read_swf")


def test_streaming_metrics_has_no_mode():
    text = (SRC / "metrics" / "streaming.py").read_text()
    sink = text[text.index("class StreamingMetrics"):]
    assert "mode" not in _parameters(sink, "def __init__")
