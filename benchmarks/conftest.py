"""Benchmark-local pytest plumbing.

Adds the ``--store`` axis: restrict store-sweeping benches (B2 in
``bench_batch_throughput.py``) to one master-store backend, e.g.::

    pytest benchmarks/bench_batch_throughput.py --store sqlite
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--store",
        action="store",
        default="all",
        choices=("all", "single", "sqlite"),
        help="master store backend to sweep (default: all)",
    )


@pytest.fixture(scope="module")
def store_axis(request):
    return request.config.getoption("--store")
