"""Property suite: generating into columns is the row generator, exactly.

``WorkloadGenerator.generate_table`` is the one body of every generator;
``generate`` is ``generate_table(...).to_workload()``.  Both must equal
the row-at-a-time bodies frozen in ``tests/oracles/row_builders.py``
(one validated ``Job`` per draw, the category drawn by
``rng.choice(4, p=...)``) field for field — values *and* builtin types,
the workload's name, machine size and metadata included — for every
trace, drawn seeds and sizes, 0 and 1 among them.  Equal fields mean the
RNG stream was consumed draw for draw as before.
"""

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import base_workload_table, clear_cache
from repro.workload.generators.base import (
    CategoryMix,
    LogUniform,
    ModelGenerator,
    SyntheticTraceModel,
)
from repro.workload.generators.ctc import CTCGenerator
from repro.workload.generators.lublin import LublinGenerator
from repro.workload.generators.sdsc import SDSCGenerator

from tests.oracles.row_builders import generate_rows

#: Generators under test: the three traces at their defaults, and variants
#: that take the other branches (no daily cycle, a strong one, a narrow
#: machine, a degenerate runtime class that draws nothing).
GENERATORS = {
    "CTC": CTCGenerator(),
    "SDSC": SDSCGenerator(),
    "LUBLIN": LublinGenerator(),
    "CTC-flat": CTCGenerator(daily_cycle_amplitude=0.0, target_load=0.9),
    "SDSC-cyclic": SDSCGenerator(daily_cycle_amplitude=0.9),
    "LUBLIN-64": LublinGenerator(max_procs=64, daily_cycle_amplitude=0.0),
    "fixed-short": ModelGenerator(
        SyntheticTraceModel(
            name="FIXED",
            max_procs=32,
            mix=CategoryMix(0.4, 0.3, 0.2, 0.1),
            short_runtime=LogUniform(600.0, 600.0),
        )
    ),
}

sizes = st.one_of(st.just(0), st.just(1), st.integers(2, 150))
seeds = st.integers(0, 2**32 - 1)


def _fields(workload):
    """Every job field with its type, so 1 and 1.0 do not compare equal."""
    return [tuple((type(v), v) for v in astuple(job)) for job in workload]


def _assert_same(expected, actual):
    assert _fields(actual) == _fields(expected)
    assert actual.name == expected.name
    assert actual.max_procs == expected.max_procs
    assert actual.metadata == expected.metadata


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GENERATORS)), n=sizes, seed=seeds)
def test_generate_table_equals_the_row_generator(name, n, seed):
    generator = GENERATORS[name]
    expected = generate_rows(generator, n, seed=seed)
    _assert_same(expected, generator.generate_table(n, seed=seed).to_workload())
    _assert_same(expected, generator.generate(n, seed=seed))


@pytest.mark.parametrize("trace", ["CTC", "SDSC", "LUBLIN"])
@pytest.mark.parametrize("n", [0, 1, 500])
def test_base_workload_table_equals_the_row_generator(trace, n):
    clear_cache()
    table = base_workload_table(trace, n, 7)
    _assert_same(generate_rows(GENERATORS[trace], n, seed=7), table.to_workload())


def test_a_mix_numpy_rejects_still_raises():
    # CategoryMix accepts a sum within 1e-6 of 1; Generator.choice only
    # within sqrt(eps) ~ 1.5e-8.  Both paths refuse such a mix the same
    # way, and neither draws a category for an empty workload.
    loose = ModelGenerator(
        SyntheticTraceModel(
            name="LOOSE", max_procs=32, mix=CategoryMix(0.4, 0.3, 0.2, 0.1 + 5e-7)
        )
    )
    for generate in (generate_rows, lambda g, n, seed: g.generate_table(n, seed=seed)):
        with pytest.raises(ValueError, match="Probabilities do not sum to 1"):
            generate(loose, 3, seed=1)
        assert len(generate(loose, 0, seed=1)) == 0
