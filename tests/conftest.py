"""Shared fixtures and oracles; collects acceptance-criterion verdicts for the summary."""

import contextlib
import itertools
import time

import pytest

_LINES: dict[int, str] = {}


class CriterionRecorder:
    """Times a criterion block, prints one pass/fail line, and re-raises."""

    @contextlib.contextmanager
    def __call__(self, number: int, description: str, limit: float | None = None):
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:  # record the verdict before propagating
            error = exc
        elapsed = time.perf_counter() - start
        on_time = limit is None or elapsed <= limit
        status = "PASS" if error is None and on_time else "FAIL"
        budget = f", limit {limit:.0f}s" if limit is not None else ""
        line = f"criterion {number}: {status} ({elapsed:.2f}s{budget}) {description}"
        _LINES[number] = line
        print(line)
        if error is not None:
            raise error
        if not on_time:
            raise AssertionError(
                f"criterion {number} exceeded its time budget: {elapsed:.2f}s > {limit}s"
            )


@pytest.fixture
def broken_additions():
    """(message, table) pairs: square tables that each break one axiom of an
    abelian group, named by the message the validators raise."""
    perms = sorted(itertools.permutations(range(3)))
    s3 = [[perms.index(tuple(p[x] for x in q)) for q in perms] for p in perms]
    return [
        ("no identity", [[0, 0], [0, 0]]),
        ("no inverse", [[0, 1], [1, 1]]),
        ("not commutative", s3),  # S_3 is a group, but not an abelian one
        ("not associative", [[0, 1, 2], [1, 0, 0], [2, 0, 1]]),
    ]


def _is_module_automorphism(module, perm) -> bool:
    """Whether perm is a bijection of the module that fixes zero and commutes
    with its addition and with the action of every ring element."""
    n = module.order
    if len(perm) != n or len(set(perm)) != n or perm[module.zero] != module.zero:
        return False
    add, act = module.add_table, module.act_table
    if any(perm[add[a][b]] != add[perm[a]][perm[b]] for a in range(n) for b in range(n)):
        return False
    return all(perm[row[a]] == row[perm[a]] for row in act for a in range(n))


@pytest.fixture(scope="session")
def is_module_automorphism():
    """The brute-force automorphism test, the oracle for Aut(A)."""
    return _is_module_automorphism


@pytest.fixture
def criterion():
    return CriterionRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for number in sorted(_LINES):
            terminalreporter.write_line(_LINES[number])
