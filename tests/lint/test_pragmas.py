"""Pragma parsing and per-line suppression."""

from repro.lint import lint_source
from repro.lint.pragmas import is_suppressed, parse_pragmas


class TestParsePragmas:
    def test_single_rule(self):
        pragmas = parse_pragmas("x = 1  # lint: allow[R001]\n")
        assert pragmas == {1: frozenset({"R001"})}

    def test_multiple_rules_one_line(self):
        pragmas = parse_pragmas("x = 1  # lint: allow[R001, R004]\n")
        assert pragmas[1] == frozenset({"R001", "R004"})

    def test_wildcard(self):
        pragmas = parse_pragmas("x = 1  # lint: allow[*]\n")
        assert is_suppressed(pragmas, 1, "R999")

    def test_lines_are_one_based(self):
        pragmas = parse_pragmas("a = 1\nb = 2  # lint: allow[R002]\n")
        assert list(pragmas) == [2]

    def test_trailing_prose_allowed(self):
        pragmas = parse_pragmas(
            "x = t.time()  # lint: allow[R001] — offline prep cost\n"
        )
        assert is_suppressed(pragmas, 1, "R001")

    def test_plain_comment_is_not_a_pragma(self):
        assert parse_pragmas("x = 1  # allow anything here\n") == {}


class TestSuppression:
    def test_pragma_silences_finding_on_its_line(self):
        source = "import time\nt = time.time()  # lint: allow[R001]\n"
        assert lint_source(source) == []

    def test_pragma_for_other_rule_does_not_silence(self):
        source = "import time\nt = time.time()  # lint: allow[R002]\n"
        assert [f.rule_id for f in lint_source(source)] == ["R001"]

    def test_pragma_on_other_line_does_not_silence(self):
        source = (
            "import time\n"
            "# lint: allow[R001]\n"
            "t = time.time()\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["R001"]

    def test_wildcard_silences_everything_on_line(self):
        source = "import random  # lint: allow[*]\nimport time\n"
        assert lint_source(source) == []

    def test_multiple_rules_one_pragma_silence_both(self):
        source = (
            "import time\n"
            "import random\n"
            "x = [time.time(), random.random()]  # lint: allow[R001, R002]\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["R002"]  # import

    def test_pragma_on_continuation_line_of_expression(self):
        # The flagged expression spans lines 3-5; the pragma sits on the
        # closing line, the finding anchors at the opening one.
        source = (
            "import time\n"
            "x = (\n"
            "    time.time()\n"
            "    + 1\n"
            ")  # lint: allow[R001]\n"
        )
        assert lint_source(source) == []

    def test_pragma_on_opening_line_of_expression(self):
        source = (
            "import time\n"
            "x = (  # lint: allow[R001]\n"
            "    time.time()\n"
            ")\n"
        )
        assert lint_source(source) == []

    def test_pragma_outside_expression_span_does_not_silence(self):
        source = (
            "import time\n"
            "# lint: allow[R001]\n"
            "x = (\n"
            "    time.time()\n"
            ")\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["R001"]


class TestUnknownRuleIds:
    def test_unknown_rule_id_warns_w001(self):
        findings = lint_source("x = 1  # lint: allow[R999]\n")
        assert [f.rule_id for f in findings] == ["W001"]
        assert "R999" in findings[0].message

    def test_known_static_rule_id_does_not_warn(self):
        assert lint_source("x = 1  # lint: allow[R010]\n") == []

    def test_wildcard_does_not_warn(self):
        assert lint_source("x = 1  # lint: allow[*]\n") == []

    def test_typo_still_reports_the_unsuppressed_finding(self):
        source = "import time\nx = time.time()  # lint: allow[R01]\n"
        rule_ids = sorted(f.rule_id for f in lint_source(source))
        assert rule_ids == ["R001", "W001"]
