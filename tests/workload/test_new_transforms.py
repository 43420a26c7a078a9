"""Unit tests for the merge transform."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.job import Workload
from repro.workload.transforms import merge

from tests.conftest import make_job


def _stream(base_id, submit0, n=5, procs=2):
    return Workload.from_jobs(
        [
            make_job(base_id + i, submit=submit0 + i * 10.0, runtime=50.0, procs=procs)
            for i in range(n)
        ],
        max_procs=8,
        name=f"s{base_id}",
    )


class TestMerge:
    def test_interleaves_and_renumbers(self):
        merged = merge([_stream(1, 0.0), _stream(100, 5.0)])
        assert len(merged) == 10
        assert [j.job_id for j in merged] == list(range(1, 11))
        submits = [j.submit_time for j in merged]
        assert submits == sorted(submits)

    def test_source_stream_preserved_in_partition(self):
        merged = merge([_stream(1, 0.0), _stream(100, 5.0)])
        partitions = {j.partition for j in merged}
        assert partitions == {0, 1}

    def test_max_procs_defaults_to_widest(self):
        a = _stream(1, 0.0)
        b = Workload.from_jobs([make_job(1, procs=16)], max_procs=16)
        assert merge([a, b]).max_procs == 16

    def test_explicit_max_procs(self):
        assert merge([_stream(1, 0.0)], max_procs=64).max_procs == 64

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            merge([])

    def test_metadata_records_sources(self):
        merged = merge([_stream(1, 0.0), _stream(100, 5.0)])
        assert merged.metadata["merged_from"] == ["s1", "s100"]

