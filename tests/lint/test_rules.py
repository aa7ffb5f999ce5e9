"""Fixture-backed tests for every lint rule: known-bad fires, known-good stays silent."""

import textwrap

from repro.lint import lint_source


def _rule_ids(source, select=None):
    return [f.rule_id for f in lint_source(textwrap.dedent(source), select=select)]


class TestR001WallClock:
    def test_time_time_fires(self):
        assert _rule_ids("import time\nt = time.time()\n") == ["R001"]

    def test_perf_counter_fires(self):
        assert _rule_ids("import time\nt = time.perf_counter()\n") == ["R001"]

    def test_monotonic_ns_fires(self):
        assert _rule_ids("import time\nt = time.monotonic_ns()\n") == ["R001"]

    def test_datetime_now_fires(self):
        assert _rule_ids("import datetime\nn = datetime.datetime.now()\n") == ["R001"]

    def test_aliased_import_fires(self):
        assert _rule_ids("import time as t\nx = t.time()\n") == ["R001"]

    def test_from_import_fires(self):
        assert _rule_ids(
            "from time import perf_counter\nx = perf_counter()\n"
        ) == ["R001"]

    def test_time_sleep_is_fine(self):
        assert _rule_ids("import time\ntime.sleep(0.1)\n") == []

    def test_unrelated_attribute_is_fine(self):
        assert _rule_ids("class C:\n    time = 3\nc = C()\nx = c.time\n") == []


class TestR002RawRandom:
    def test_import_random_fires(self):
        assert _rule_ids("import random\n") == ["R002"]

    def test_from_random_import_fires(self):
        assert _rule_ids("from random import choice\n") == ["R002"]

    def test_aliased_use_fires(self):
        assert "R002" in _rule_ids("import random as rnd\nx = rnd.random()\n")

    def test_numpy_global_rng_fires(self):
        assert _rule_ids(
            "import numpy as np\nnp.random.seed(0)\n", select=["R002"]
        ) == ["R002"]

    def test_numpy_default_rng_is_fine(self):
        assert _rule_ids(
            "import numpy as np\nrng = np.random.default_rng(0)\n",
            select=["R002"],
        ) == []

    def test_repro_util_rng_is_fine(self):
        assert _rule_ids("from repro.util.rng import make_rng\n") == []

    # Entropy sources flagged where they are written: every file under
    # src/repro and benchmarks is linted, so no call chain reaches one
    # unflagged.

    def test_unseeded_default_rng_fires(self):
        assert _rule_ids(
            "import numpy as np\nrng = np.random.default_rng()\n"
        ) == ["R002"]

    def test_unseeded_from_imported_generators_fire(self):
        source = """
        from numpy.random import RandomState, default_rng
        a = default_rng()
        b = RandomState()
        """
        assert _rule_ids(source) == ["R002", "R002"]

    def test_seeded_generators_are_fine(self):
        source = """
        import numpy as np
        a = np.random.default_rng(seed)
        b = np.random.RandomState(7)
        c = np.random.default_rng(seed=seed)
        factory = np.random.default_rng
        """
        assert _rule_ids(source) == []

    def test_os_entropy_sources_fire(self):
        source = """
        import os
        import secrets
        import uuid
        from uuid import uuid1
        a = os.urandom(8)
        b = uuid.uuid4()
        c = uuid1()
        d = secrets.token_hex(8)
        """
        assert _rule_ids(source) == ["R002"] * 4

    def test_name_based_uuid_is_fine(self):
        assert _rule_ids("import uuid\nu = uuid.uuid5(ns, 'x')\n") == []

    def test_allow_pragma_suppresses_entropy_source(self):
        source = """
        import os
        import numpy as np
        rng = np.random.default_rng(
        )  # lint: allow[R002]
        salt = os.urandom(8)  # lint: allow[R002]
        """
        assert _rule_ids(source) == []


class TestR003UnorderedIteration:
    def test_accumulating_for_over_set_fires(self):
        source = """
        total = 0.0
        for item in {1.5, 2.5}:
            total += item
        """
        assert _rule_ids(source) == ["R003"]

    def test_append_in_for_over_keys_union_fires(self):
        source = """
        out = []
        for key in left.keys() | right.keys():
            out.append(key)
        """
        assert _rule_ids(source) == ["R003"]

    def test_list_over_set_comprehension_fires(self):
        assert _rule_ids("xs = list({a for a in ys})\n") == ["R003"]

    def test_sum_of_generator_over_set_fires(self):
        assert _rule_ids("t = sum(x for x in {1.0, 2.0})\n") == ["R003"]

    def test_sorted_set_is_fine(self):
        source = """
        total = 0.0
        for item in sorted({1.5, 2.5}):
            total += item
        """
        assert _rule_ids(source) == []

    def test_order_insensitive_consumers_are_fine(self):
        assert _rule_ids("n = len({1, 2})\nm = max({1, 2})\n") == []

    def test_for_over_list_is_fine(self):
        source = """
        total = 0.0
        for item in [1.5, 2.5]:
            total += item
        """
        assert _rule_ids(source) == []


class TestR004FloatEquality:
    def test_float_literal_eq_fires(self):
        assert _rule_ids("ok = x == 0.0\n") == ["R004"]

    def test_quantity_name_eq_fires(self):
        assert _rule_ids("done = elapsed_seconds == limit\n") == ["R004"]

    def test_bytes_name_ne_fires(self):
        assert _rule_ids("more = moved_bytes != quota\n") == ["R004"]

    def test_integer_eq_is_fine(self):
        assert _rule_ids("ok = count == 0\n") == []

    def test_strategy_name_is_fine(self):
        # "rate" inside "strategy" must not match: tokens, not substrings.
        assert _rule_ids("same = placement_strategy == other\n") == []

    def test_quantity_lt_is_fine(self):
        assert _rule_ids("late = elapsed_seconds > limit\n") == []


class TestR005MutableDefault:
    def test_list_default_fires(self):
        assert _rule_ids("def f(xs=[]):\n    return xs\n") == ["R005"]

    def test_dict_default_fires(self):
        assert _rule_ids("def f(m={}):\n    return m\n") == ["R005"]

    def test_kwonly_set_call_default_fires(self):
        assert _rule_ids("def f(*, s=set()):\n    return s\n") == ["R005"]

    def test_defaultdict_default_fires(self):
        source = """
        import collections
        def f(m=collections.defaultdict(list)):
            return m
        """
        assert _rule_ids(source) == ["R005"]

    def test_none_default_is_fine(self):
        assert _rule_ids("def f(xs=None):\n    return xs or []\n") == []

    def test_tuple_default_is_fine(self):
        assert _rule_ids("def f(xs=()):\n    return xs\n") == []


class TestR006BlanketExcept:
    def test_bare_except_fires(self):
        source = """
        try:
            go()
        except:
            pass
        """
        assert _rule_ids(source) == ["R006"]

    def test_except_exception_fires(self):
        source = """
        try:
            go()
        except Exception:
            pass
        """
        assert _rule_ids(source) == ["R006"]

    def test_exception_in_tuple_fires(self):
        source = """
        try:
            go()
        except (ValueError, Exception):
            pass
        """
        assert _rule_ids(source) == ["R006"]

    def test_specific_except_is_fine(self):
        source = """
        try:
            go()
        except (ValueError, KeyError):
            pass
        """
        assert _rule_ids(source) == []


class TestR007HardCodedBenchSeed:
    BENCH_PATH = "benchmarks/bench_demo.py"

    def _bench_ids(self, source):
        return [
            f.rule_id
            for f in lint_source(textwrap.dedent(source), path=self.BENCH_PATH)
        ]

    def test_seed_constant_fires(self):
        assert self._bench_ids("SEED = 11\n") == ["R007"]
        assert self._bench_ids("MY_SEED = 3\n") == ["R007"]

    def test_seed_kwarg_fires(self):
        assert self._bench_ids("build(seed=7)\n") == ["R007"]

    def test_negative_seed_kwarg_fires(self):
        assert self._bench_ids("build(seed=-2)\n") == ["R007"]

    def test_seed_default_fires(self):
        assert self._bench_ids("def build(seed=4):\n    pass\n") == ["R007"]

    def test_kwonly_seed_default_fires(self):
        assert self._bench_ids("def build(*, seed=4):\n    pass\n") == ["R007"]

    def test_seed_none_default_is_fine(self):
        assert self._bench_ids("def build(seed=None):\n    pass\n") == []

    def test_harness_seed_is_fine(self):
        source = """
        from repro.bench import bench_seed
        build(seed=bench_seed())
        """
        assert self._bench_ids(source) == []

    def test_non_seed_literals_are_fine(self):
        assert self._bench_ids("COUNT = 11\nbuild(records=4)\n") == []

    def test_only_fires_under_a_benchmarks_directory(self):
        source = "SEED = 11\nbuild(seed=4)\n"
        for path in ("src/repro/core/runner.py", "tests/test_x.py", "<string>"):
            assert [
                f.rule_id
                for f in lint_source(textwrap.dedent(source), path=path)
            ] == []

    def test_allow_pragma_suppresses(self):
        assert self._bench_ids("SEED = 11  # lint: allow[R007]\n") == []


class TestSyntaxErrorHandling:
    def test_unparsable_source_reports_r000(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule_id for f in findings] == ["R000"]


class TestSelect:
    def test_select_narrows_rule_pack(self):
        source = "import random\nok = x == 0.0\n"
        assert _rule_ids(source, select=["R004"]) == ["R004"]
        assert sorted(_rule_ids(source)) == ["R002", "R004"]


class TestR008LibraryPrint:
    @staticmethod
    def _lib_ids(source, path="src/repro/wan/transfer.py"):
        return [
            f.rule_id
            for f in lint_source(textwrap.dedent(source), path=path)
        ]

    def test_print_in_library_fires(self):
        assert self._lib_ids('print("debug")\n') == ["R008"]

    def test_print_outside_src_repro_is_fine(self):
        assert self._lib_ids('print("ok")\n', path="benchmarks/bench_x.py") == []
        assert self._lib_ids('print("ok")\n', path="tests/test_x.py") == []

    def test_cli_modules_whitelisted(self):
        for path in (
            "src/repro/cli.py",
            "src/repro/__main__.py",
            "src/repro/lint/cli.py",
            "src/repro/obs/top.py",
        ):
            assert self._lib_ids('print("ok")\n', path=path) == []

    def test_method_named_print_is_fine(self):
        assert self._lib_ids("obj.print()\n") == []

    def test_pragma_suppresses(self):
        assert self._lib_ids('print("x")  # lint: allow[R008]\n') == []

    def test_windows_separators_normalized(self):
        assert self._lib_ids(
            'print("x")\n', path="src\\repro\\core\\controller.py"
        ) == ["R008"]
