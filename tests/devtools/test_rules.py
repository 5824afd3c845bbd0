"""Paired violating/clean fixtures for every lint rule in the pack.

Every rule gets at least one snippet that must fire and one that must stay
clean; path-scoped rules additionally prove their only_paths/allow_paths
behaviour.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.rules import RULE_CLASSES, all_rules, rules_by_code


def codes(findings):
    return sorted({f.rule for f in findings})


def dedent(src: str) -> str:
    return textwrap.dedent(src).lstrip("\n")


# ---------------------------------------------------------------------------
# REPRO101 — global-state RNG
# ---------------------------------------------------------------------------


def test_module_level_numpy_random_call_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        POINTS = np.random.default_rng(7).normal(size=10)
        """
    )
    assert "REPRO101" in codes(lint_snippet(src, select={"REPRO101"}))


def test_legacy_global_numpy_api_fires_inside_function(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def jitter(x):
            return x + np.random.normal()
        """
    )
    assert "REPRO101" in codes(lint_snippet(src, select={"REPRO101"}))


def test_stdlib_random_global_fires(lint_snippet):
    src = dedent(
        """
        import random

        def pick(items):
            return random.choice(items)
        """
    )
    assert "REPRO101" in codes(lint_snippet(src, select={"REPRO101"}))


def test_generator_passed_explicitly_is_clean(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def sample(rng: np.random.Generator):
            return rng.normal(size=4)
        """
    )
    assert lint_snippet(src, select={"REPRO101"}) == []


def test_seeded_default_rng_inside_function_is_clean_for_101(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
        """
    )
    assert lint_snippet(src, select={"REPRO101"}) == []


# ---------------------------------------------------------------------------
# REPRO102 — unseeded default_rng fallbacks
# ---------------------------------------------------------------------------


def test_unseeded_default_rng_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def sample(rng=None):
            rng = rng or np.random.default_rng()
            return rng.random()
        """
    )
    assert "REPRO102" in codes(lint_snippet(src, select={"REPRO102"}))


def test_from_import_alias_is_resolved(lint_snippet):
    src = dedent(
        """
        from numpy.random import default_rng

        def sample():
            return default_rng().random()
        """
    )
    assert "REPRO102" in codes(lint_snippet(src, select={"REPRO102"}))


def test_none_seed_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def sample():
            return np.random.default_rng(None).random()
        """
    )
    assert "REPRO102" in codes(lint_snippet(src, select={"REPRO102"}))


def test_unseeded_seedsequence_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def spawn():
            return np.random.SeedSequence().spawn(4)
        """
    )
    assert "REPRO102" in codes(lint_snippet(src, select={"REPRO102"}))


def test_seeded_default_rng_is_clean(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def sample(seed):
            return np.random.default_rng(seed).random()
        """
    )
    assert lint_snippet(src, select={"REPRO102"}) == []


def test_repro_rng_module_is_allowlisted(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def fallback():
            return np.random.default_rng()
        """
    )
    assert lint_snippet(src, select={"REPRO102"}, relpath="src/repro/rng.py") == []


# ---------------------------------------------------------------------------
# REPRO103 — seed arithmetic
# ---------------------------------------------------------------------------


def test_seed_arithmetic_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def workers(seed, n):
            return [np.random.default_rng(seed + i) for i in range(n)]
        """
    )
    assert "REPRO103" in codes(lint_snippet(src, select={"REPRO103"}))


def test_seedsequence_spawn_is_clean(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def workers(seed, n):
            return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
        """
    )
    assert lint_snippet(src, select={"REPRO103"}) == []


def test_constant_expression_seed_is_clean(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def make():
            return np.random.default_rng(2**32 - 1)
        """
    )
    assert lint_snippet(src, select={"REPRO103"}) == []


def test_entropy_list_composition_is_clean(lint_snippet):
    # PR 1's executor composes entropy as a list — the sanctioned form.
    src = dedent(
        """
        import numpy as np

        def children(base_seed, id_entropy, n):
            return np.random.SeedSequence([base_seed, id_entropy]).spawn(n)
        """
    )
    assert lint_snippet(src, select={"REPRO103"}) == []


# ---------------------------------------------------------------------------
# REPRO201 — float equality
# ---------------------------------------------------------------------------


def test_float_literal_equality_fires(lint_snippet):
    src = dedent(
        """
        def check(x):
            return x == 0.5
        """
    )
    assert "REPRO201" in codes(lint_snippet(src, select={"REPRO201"}))


def test_float_literal_inequality_fires(lint_snippet):
    src = dedent(
        """
        def check(x):
            return x != -1.5
        """
    )
    assert "REPRO201" in codes(lint_snippet(src, select={"REPRO201"}))


def test_integer_literal_equality_is_clean(lint_snippet):
    src = dedent(
        """
        def check(n):
            return n == 0
        """
    )
    assert lint_snippet(src, select={"REPRO201"}) == []


def test_float_ordering_comparison_is_clean(lint_snippet):
    src = dedent(
        """
        def check(x):
            return x <= 0.5
        """
    )
    assert lint_snippet(src, select={"REPRO201"}) == []


# ---------------------------------------------------------------------------
# REPRO202 — raw squared distance
# ---------------------------------------------------------------------------


def test_classic_d2_le_r2_fires(lint_snippet):
    src = dedent(
        """
        def inside(dx, dy, r):
            return dx * dx + dy * dy <= r * r
        """
    )
    assert "REPRO202" in codes(lint_snippet(src, select={"REPRO202"}))


def test_pow_form_fires(lint_snippet):
    src = dedent(
        """
        def inside(px, py, cx, cy, r):
            return (px - cx) ** 2 + (py - cy) ** 2 <= r**2
        """
    )
    assert "REPRO202" in codes(lint_snippet(src, select={"REPRO202"}))


def test_precomputed_d2_name_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def inside(pts, center, r):
            diff = pts - center
            d2 = np.sum(diff**2, axis=1)
            return d2 <= r * r
        """
    )
    assert "REPRO202" in codes(lint_snippet(src, select={"REPRO202"}))


def test_einsum_squared_distance_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def inside(pts, anchors, r2):
            diff = pts[:, None, :] - anchors[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            return d2 <= r2 + 1e-12
        """
    )
    assert "REPRO202" in codes(lint_snippet(src, select={"REPRO202"}))


def test_within_ball_usage_is_clean(lint_snippet):
    src = dedent(
        """
        from repro.geometry.index import within_ball

        def inside(pts, center, r):
            return within_ball(pts, center, r)
        """
    )
    assert lint_snippet(src, select={"REPRO202"}) == []


def test_plain_square_against_scalar_is_clean(lint_snippet):
    # A lone squared term is ordinary arithmetic, not a distance test.
    src = dedent(
        """
        def occupancy(lam, a, k):
            return lam * (10 * a) ** 2 < k / 2
        """
    )
    assert lint_snippet(src, select={"REPRO202"}) == []


def test_geometry_core_modules_are_allowlisted(lint_snippet):
    src = dedent(
        """
        def inside(dx, dy, r):
            return dx * dx + dy * dy <= r * r
        """
    )
    for relpath in (
        "src/repro/geometry/predicates.py",
        "src/repro/geometry/index.py",
        "src/repro/geometry/primitives.py",
    ):
        assert lint_snippet(src, select={"REPRO202"}, relpath=relpath) == []


# ---------------------------------------------------------------------------
# REPRO301 — wall clocks
# ---------------------------------------------------------------------------


def test_time_time_fires(lint_snippet):
    src = dedent(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    assert "REPRO301" in codes(lint_snippet(src, select={"REPRO301"}))


def test_datetime_now_fires(lint_snippet):
    src = dedent(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
    )
    assert "REPRO301" in codes(lint_snippet(src, select={"REPRO301"}))


def test_strftime_without_time_tuple_fires(lint_snippet):
    src = dedent(
        """
        import time

        def stamp():
            return time.strftime("%H:%M:%S")
        """
    )
    assert "REPRO301" in codes(lint_snippet(src, select={"REPRO301"}))


def test_perf_counter_is_clean(lint_snippet):
    src = dedent(
        """
        import time

        def elapsed(start):
            return time.perf_counter() - start
        """
    )
    assert lint_snippet(src, select={"REPRO301"}) == []


def test_queue_module_is_allowlisted(lint_snippet):
    src = dedent(
        """
        import time

        def claim(now=None):
            return time.time() if now is None else now
        """
    )
    assert lint_snippet(src, select={"REPRO301"}, relpath="src/repro/runner/queue.py") == []


def test_serve_clock_module_is_allowlisted(lint_snippet):
    # serve/clock.py IS the daemon's sanctioned clock boundary: the same
    # wall-clock read fires everywhere else (including the rest of
    # repro.serve) but stays clean inside the boundary module itself.
    src = dedent(
        """
        import time

        def wall_now():
            return time.time()
        """
    )
    assert lint_snippet(src, select={"REPRO301"}, relpath="src/repro/serve/clock.py") == []
    assert "REPRO301" in codes(
        lint_snippet(src, select={"REPRO301"}, relpath="src/repro/serve/metrics.py")
    )


# ---------------------------------------------------------------------------
# REPRO401 — canonical serializer
# ---------------------------------------------------------------------------

_BARE_JSON = """
import json

def render(record):
    return json.dumps(record)
"""


def test_bare_json_dumps_in_runner_fires(lint_snippet):
    findings = lint_snippet(
        dedent(_BARE_JSON), select={"REPRO401"}, relpath="src/repro/runner/store.py"
    )
    assert "REPRO401" in codes(findings)


def test_bare_json_dump_in_benchmarks_fires(lint_snippet):
    findings = lint_snippet(
        dedent(_BARE_JSON), select={"REPRO401"}, relpath="benchmarks/bench_new.py"
    )
    assert "REPRO401" in codes(findings)


def test_serialize_module_is_allowlisted(lint_snippet):
    findings = lint_snippet(
        dedent(_BARE_JSON), select={"REPRO401"}, relpath="src/repro/runner/serialize.py"
    )
    assert findings == []


def test_json_outside_scope_is_clean(lint_snippet):
    findings = lint_snippet(
        dedent(_BARE_JSON), select={"REPRO401"}, relpath="src/repro/analysis/tables.py"
    )
    assert findings == []


# ---------------------------------------------------------------------------
# REPRO402 — append discipline
# ---------------------------------------------------------------------------


def test_append_open_in_runner_fires(lint_snippet):
    src = dedent(
        """
        def append(path, line):
            with open(path, "a") as fh:
                fh.write(line)
        """
    )
    findings = lint_snippet(src, select={"REPRO402"}, relpath="src/repro/runner/store.py")
    assert "REPRO402" in codes(findings)


def test_append_mode_keyword_fires(lint_snippet):
    src = dedent(
        """
        def append(path, line):
            with open(path, mode="ab") as fh:
                fh.write(line)
        """
    )
    findings = lint_snippet(src, select={"REPRO402"}, relpath="src/repro/runner/cli.py")
    assert "REPRO402" in codes(findings)


def test_read_open_is_clean(lint_snippet):
    src = dedent(
        """
        def read(path):
            with open(path, "r") as fh:
                return fh.read()
        """
    )
    assert lint_snippet(src, select={"REPRO402"}, relpath="src/repro/runner/store.py") == []


def test_append_outside_runner_is_clean(lint_snippet):
    src = dedent(
        """
        def append(path, line):
            with open(path, "a") as fh:
                fh.write(line)
        """
    )
    assert lint_snippet(src, select={"REPRO402"}, relpath="src/repro/analysis/tables.py") == []


# ---------------------------------------------------------------------------
# REPRO501 — sqlite thread affinity / isolation level
# ---------------------------------------------------------------------------


def test_check_same_thread_false_fires_anywhere(lint_snippet):
    src = dedent(
        """
        import sqlite3

        def connect(path):
            return sqlite3.connect(path, check_same_thread=False)
        """
    )
    assert "REPRO501" in codes(lint_snippet(src, select={"REPRO501"}))


def test_runner_connect_without_isolation_level_fires(lint_snippet):
    src = dedent(
        """
        import sqlite3

        def connect(path):
            return sqlite3.connect(path)
        """
    )
    findings = lint_snippet(src, select={"REPRO501"}, relpath="src/repro/runner/sqlite_store.py")
    assert "REPRO501" in codes(findings)


def test_runner_connect_with_isolation_none_is_clean(lint_snippet):
    src = dedent(
        """
        import sqlite3

        def connect(path):
            return sqlite3.connect(path, timeout=5.0, isolation_level=None)
        """
    )
    findings = lint_snippet(src, select={"REPRO501"}, relpath="src/repro/runner/sqlite_store.py")
    assert findings == []


def test_non_runner_connect_without_isolation_is_clean(lint_snippet):
    src = dedent(
        """
        import sqlite3

        def connect(path):
            return sqlite3.connect(path)
        """
    )
    assert lint_snippet(src, select={"REPRO501"}) == []


# ---------------------------------------------------------------------------
# REPRO502 — BEGIN IMMEDIATE
# ---------------------------------------------------------------------------


def test_deferred_begin_fires(lint_snippet):
    src = dedent(
        """
        def claim(conn):
            conn.execute("BEGIN")
        """
    )
    assert "REPRO502" in codes(lint_snippet(src, select={"REPRO502"}))


def test_begin_transaction_fires(lint_snippet):
    src = dedent(
        """
        def claim(conn):
            conn.execute("begin transaction")
        """
    )
    assert "REPRO502" in codes(lint_snippet(src, select={"REPRO502"}))


def test_begin_immediate_is_clean(lint_snippet):
    src = dedent(
        """
        def claim(conn):
            conn.execute("BEGIN IMMEDIATE")
        """
    )
    assert lint_snippet(src, select={"REPRO502"}) == []


def test_begin_exclusive_is_clean(lint_snippet):
    src = dedent(
        """
        def claim(conn):
            conn.execute("BEGIN EXCLUSIVE")
        """
    )
    assert lint_snippet(src, select={"REPRO502"}) == []


def test_select_statement_is_clean(lint_snippet):
    src = dedent(
        """
        def rows(conn):
            return conn.execute("SELECT * FROM records").fetchall()
        """
    )
    assert lint_snippet(src, select={"REPRO502"}) == []


# ---------------------------------------------------------------------------
# REPRO601 — shared-memory lifecycle
# ---------------------------------------------------------------------------


def test_bare_shared_memory_constructor_fires(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        def scratch(nbytes):
            shm = SharedMemory(create=True, size=nbytes)
            return shm.buf
        """
    )
    assert "REPRO601" in codes(lint_snippet(src, select={"REPRO601"}))


def test_attach_via_module_alias_fires(lint_snippet):
    src = dedent(
        """
        from multiprocessing import shared_memory

        def peek(name):
            return shared_memory.SharedMemory(name=name).buf[0]
        """
    )
    assert "REPRO601" in codes(lint_snippet(src, select={"REPRO601"}))


def test_try_without_cleanup_fires(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        def use(name):
            shm = SharedMemory(name=name)
            try:
                return bytes(shm.buf)
            finally:
                pass
        """
    )
    assert "REPRO601" in codes(lint_snippet(src, select={"REPRO601"}))


def test_closing_context_manager_is_clean(lint_snippet):
    # SharedMemory is not a context manager before 3.13 — contextlib.closing
    # is the sanctioned with-statement idiom.
    src = dedent(
        """
        from contextlib import closing
        from multiprocessing.shared_memory import SharedMemory

        def use(name):
            with closing(SharedMemory(name=name)) as shm:
                return bytes(shm.buf)
        """
    )
    assert lint_snippet(src, select={"REPRO601"}) == []


def test_try_finally_close_is_clean(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        def use(name):
            shm = SharedMemory(name=name)
            try:
                return bytes(shm.buf)
            finally:
                shm.close()
        """
    )
    assert lint_snippet(src, select={"REPRO601"}) == []


def test_owner_try_finally_close_unlink_is_clean(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        def scratch(nbytes):
            shm = SharedMemory(create=True, size=nbytes)
            try:
                return bytes(shm.buf)
            finally:
                shm.close()
                shm.unlink()
        """
    )
    assert lint_snippet(src, select={"REPRO601"}) == []


def test_owning_class_with_close_is_clean(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        class Block:
            def __init__(self, nbytes):
                self._shm = SharedMemory(create=True, size=nbytes)

            def close(self):
                self._shm.close()
                self._shm.unlink()
        """
    )
    assert lint_snippet(src, select={"REPRO601"}) == []


def test_class_without_release_method_fires(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        class Block:
            def __init__(self, nbytes):
                self._shm = SharedMemory(create=True, size=nbytes)
        """
    )
    assert "REPRO601" in codes(lint_snippet(src, select={"REPRO601"}))


def test_sanctioned_shm_helper_module_is_exempt(lint_snippet):
    src = dedent(
        """
        from multiprocessing.shared_memory import SharedMemory

        def attach_block(name):
            return SharedMemory(name=name)
        """
    )
    findings = lint_snippet(src, select={"REPRO601"}, relpath="src/repro/shard/shm.py")
    assert findings == []


# ---------------------------------------------------------------------------
# REPRO701 — bounded, injectable retries
# ---------------------------------------------------------------------------


def test_bare_sleep_in_while_retry_loop_fires(lint_snippet):
    src = dedent(
        """
        import time

        def fetch(conn):
            while True:
                try:
                    return conn.read()
                except OSError:
                    time.sleep(1.0)
        """
    )
    assert "REPRO701" in codes(lint_snippet(src, select={"REPRO701"}))


def test_from_import_sleep_alias_in_for_loop_fires(lint_snippet):
    src = dedent(
        """
        from time import sleep

        def poll(check):
            for _ in range(100):
                if check():
                    return True
                sleep(0.1)
            return False
        """
    )
    assert "REPRO701" in codes(lint_snippet(src, select={"REPRO701"}))


def test_sleep_outside_any_loop_is_clean(lint_snippet):
    # A single delay is not a retry loop; the rule only polices loops.
    src = dedent(
        """
        import time

        def settle():
            time.sleep(0.01)
        """
    )
    assert lint_snippet(src, select={"REPRO701"}) == []


def test_injected_sleep_parameter_is_clean(lint_snippet):
    # The sanctioned poll-loop shape: time.sleep enters as a default
    # parameter value (an Attribute, not a Call) and the loop calls the
    # injected name — tests swap it for a stub.
    src = dedent(
        """
        import time

        def poll(check, sleep=time.sleep):
            while not check():
                sleep(0.1)
            return True
        """
    )
    assert lint_snippet(src, select={"REPRO701"}) == []


def test_call_with_retry_is_clean(lint_snippet):
    src = dedent(
        """
        from repro.faults.retry import RetryPolicy, call_with_retry

        def fetch(conn, sleep):
            policy = RetryPolicy(max_attempts=5)
            return call_with_retry(conn.read, policy=policy, retry_on=(OSError,), sleep=sleep)
        """
    )
    assert lint_snippet(src, select={"REPRO701"}) == []


# ---------------------------------------------------------------------------
# REPRO801 — inline kernel idioms
# ---------------------------------------------------------------------------


_INLINE_GATHER = """
    import numpy as np

    def expand(cell_ids, starts, counts, queries):
        pos = np.searchsorted(cell_ids, queries)
        offsets = np.cumsum(counts) - counts
        return np.repeat(starts, counts) + np.arange(counts.sum()) - np.repeat(offsets, counts)
    """


def test_searchsorted_plus_repeat_gather_fires(lint_snippet):
    findings = lint_snippet(dedent(_INLINE_GATHER), select={"REPRO801"})
    assert "REPRO801" in codes(findings)
    assert "cell_gather" in findings[0].message


def test_argsort_plus_split_regroup_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def regroup(owners, members):
            order = np.argsort(owners, kind="stable")
            counts = np.bincount(owners[order])
            return np.split(members[order], np.cumsum(counts)[:-1])
        """
    )
    findings = lint_snippet(src, select={"REPRO801"})
    assert "REPRO801" in codes(findings)
    assert "sort_groups" in findings[0].message


def test_lexsort_plus_split_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np

        def regroup(a, b, members):
            order = np.lexsort((b, a))
            return np.split(members[order], [3, 7])
        """
    )
    assert "REPRO801" in codes(lint_snippet(src, select={"REPRO801"}))


def test_row_wise_unique_fires(lint_snippet):
    src = dedent(
        """
        import numpy as np
        from numpy import unique

        def canonical(edges):
            return np.unique(np.sort(edges, axis=1), axis=0)

        def canonical_alias(edges):
            return unique(edges, return_counts=True, axis=0)
        """
    )
    findings = lint_snippet(src, select={"REPRO801"})
    assert [f.rule for f in findings] == ["REPRO801", "REPRO801"]
    assert all("splice_edges" in f.message for f in findings)


def test_one_dimensional_unique_is_clean(lint_snippet):
    # The percolation relabelling shape: 1-D unique with return_inverse.
    src = dedent(
        """
        import numpy as np

        def relabel(roots):
            _, compact = np.unique(roots, return_inverse=True)
            return compact, np.unique(np.sort(roots))
        """
    )
    assert lint_snippet(src, select={"REPRO801"}) == []


def test_single_idiom_uses_are_clean(lint_snippet):
    # Each function uses only one half of an idiom pair: never flagged.
    src = dedent(
        """
        import numpy as np

        def locate(cell_ids, queries):
            return np.searchsorted(cell_ids, queries)

        def tile(starts, counts):
            return np.repeat(starts, counts)

        def rank(keys):
            return np.argsort(keys, kind="stable")

        def chop(values):
            return np.split(values, [2, 5])
        """
    )
    assert lint_snippet(src, select={"REPRO801"}) == []


def test_idioms_split_across_functions_are_clean(lint_snippet):
    # Co-occurrence is per function, not per file.
    src = dedent(
        """
        import numpy as np

        def locate(cell_ids, queries):
            return np.searchsorted(cell_ids, queries)

        def expand(starts, counts):
            return np.repeat(starts, counts)
        """
    )
    assert lint_snippet(src, select={"REPRO801"}) == []


def test_kernel_layer_homes_are_allowlisted(lint_snippet):
    for relpath in (
        "src/repro/kernels/ops.py",
        "src/repro/kernels/layout.py",
        "src/repro/geometry/index.py",
        "src/repro/dynamics/incremental.py",
    ):
        assert (
            lint_snippet(dedent(_INLINE_GATHER), select={"REPRO801"}, relpath=relpath)
            == []
        )


# ---------------------------------------------------------------------------
# Registry hygiene
# ---------------------------------------------------------------------------


def test_rule_codes_are_unique_and_stable():
    by_code = rules_by_code()
    assert len(by_code) == len(RULE_CLASSES)
    assert all(code.startswith("REPRO") for code in by_code)


def test_every_rule_has_docs():
    for rule in all_rules():
        assert rule.summary, rule.code
        assert rule.rationale, rule.code


@pytest.mark.parametrize("cls", RULE_CLASSES, ids=lambda c: c.code)
def test_every_rule_has_a_firing_fixture(cls, lint_snippet):
    """Meta-test: the violating fixtures above cover every registered code."""
    import pathlib

    source = pathlib.Path(__file__).read_text(encoding="utf-8")
    assert f'"{cls.code}" in codes(' in source, f"no firing fixture for {cls.code}"
