"""The wall-clock hotspot profiler and its collapsed-stack export."""

import re

import pytest

from repro.errors import ObservabilityError
from repro.obs.profile import WallProfiler


def _busy(n=8000):
    total = 0
    for i in range(n):
        total += i * i
    return total


class TestWallProfiler:
    def test_lifecycle_errors(self):
        profiler = WallProfiler()
        with pytest.raises(ObservabilityError):
            profiler.stop()
        profiler.start()
        with pytest.raises(ObservabilityError):
            profiler.start()
        with pytest.raises(ObservabilityError):
            profiler.hotspots()
        profiler.stop()

    def test_hotspots_and_collapsed_stacks(self, tmp_path):
        profiler = WallProfiler()
        with profiler:
            for _ in range(20):
                _busy()
        rows = profiler.hotspots(limit=5)
        assert rows
        assert any("_busy" in str(row[3]) for row in rows)

        stacks = profiler.collapsed_stacks(min_microseconds=1)
        assert stacks
        # Folded format: "frame;frame;... count".
        assert all(re.match(r"^.+ \d+$", line) for line in stacks)
        assert any("_busy" in line for line in stacks)

        out = tmp_path / "profile.collapsed"
        count = profiler.write_collapsed(str(out))
        assert count == len(out.read_text().splitlines())
        assert count > 0
