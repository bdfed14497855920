"""Benchmark fixtures and the end-of-run table reporter.

Each benchmark registers its formatted table/figure output through
``report``; everything is printed in the terminal summary so the paper
comparison survives pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.evaluation import get_or_build_system

_HERE = Path(__file__).parent
_REPORTS: list[str] = []


def register_report(text: str) -> None:
    _REPORTS.append(text)


@pytest.fixture(scope="session")
def system():
    """The full-scale trained system (trained once, cached on disk)."""
    return get_or_build_system(verbose=True)


@pytest.fixture(scope="session")
def scenario_pool(system):
    """A balanced, held-out per-scenario evaluation pool.

    The training/test split uses realistic context frequencies, which
    leaves only a handful of fog/snow test frames — too noisy for the
    per-scene comparisons of Fig. 1 / Fig. 5.  This pool renders fresh
    scenes (disjoint seed stream, same distribution) with equal counts
    per context, exactly like the paper's scenario-specific subsets.
    """
    from repro.datasets import RadiateSim, Subset, default_counts

    dataset = RadiateSim(
        default_counts(16),
        seed=system.spec.seed + 1009,
        image_size=system.spec.image_size,
    )
    return Subset(dataset, list(range(len(dataset))))


@pytest.fixture()
def report():
    return register_report


def pytest_collection_modifyitems(config, items):
    """Run table-generation and shape tests under ``--benchmark-only``.

    pytest-benchmark skips tests that don't request the ``benchmark``
    fixture when ``--benchmark-only`` is passed; in this directory those
    tests ARE the benchmark deliverable (they regenerate the paper's
    tables), so opt this directory's items into the fixture.  The hook
    sees every collected item of the session, so items elsewhere (the
    tier-1 ``tests/``) are left alone.
    """
    for item in items:
        if _HERE not in item.path.parents:
            continue
        names = getattr(item, "fixturenames", None)
        if names is not None and "benchmark" not in names:
            names.append("benchmark")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction output")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
