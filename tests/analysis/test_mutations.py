"""The seeded-mutation harness: every fault caught, the clean stack silent."""

import os

import pytest

from repro.analysis.mutations import MUTATIONS, apply_mutation, run_clean, run_mutation

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES = os.path.join(REPO_ROOT, "examples", "mutations")

#: What each seeded fault must be caught by (subset of the report's codes).
EXPECTED_CODES = {
    "dropped_lock": {"RVM601", "RVM602"},
    "stale_polarity": {"RVM301", "RVM601"},
    "omitted_journal_table": {"RVM605"},
    "overlapping_view": {"RVM501"},
}


class TestHarness:
    def test_registry_matches_expectations(self):
        assert set(MUTATIONS) == set(EXPECTED_CODES)

    def test_clean_stack_has_zero_findings(self):
        report = run_clean()
        assert len(report) == 0, report.format()

    @pytest.mark.parametrize("name", sorted(EXPECTED_CODES))
    def test_mutation_is_caught(self, name):
        report = run_mutation(name)
        codes = {d.code for d in report}
        assert EXPECTED_CODES[name] <= codes, f"{name}: got {sorted(codes)}\n{report.format()}"

    def test_unknown_mutation_raises(self):
        with pytest.raises(ValueError, match="unknown concurrency mutation"):
            run_mutation("nonsense")
        with pytest.raises(ValueError, match="unknown concurrency mutation"):
            apply_mutation("nonsense")

    def test_mutations_restore_their_seams(self):
        # After seeding and unwinding every mutation, the stack is clean.
        for name in MUTATIONS:
            with apply_mutation(name):
                pass
        report = run_clean()
        assert len(report) == 0, report.format()


class TestTrackedOpsPin:
    def test_sanitizer_tracked_ops_match_effects_refresh_ops(self):
        # obs.sanitizer cannot import repro.analysis at module level
        # (layering), so it duplicates the set; this pin keeps the two
        # definitions from drifting.
        from repro.analysis.effects import REFRESH_OPS
        from repro.obs.sanitizer import TRACKED_OPS

        assert TRACKED_OPS == REFRESH_OPS

    def test_op_spans_cover_the_whole_protocol_vocabulary(self):
        from repro.obs.sanitizer import OP_SPANS, TRACKED_OPS

        assert TRACKED_OPS <= OP_SPANS
        assert OP_SPANS == {"makesafe", "refresh", "partial_refresh", "propagate"}


class TestFixtures:
    def test_every_mutation_has_a_fixture(self):
        fixtures = {
            name[: -len("_demo.py")]
            for name in os.listdir(FIXTURES)
            if name.endswith("_demo.py")
        }
        assert fixtures == set(MUTATIONS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_CODES))
    def test_fixture_declares_its_mutation(self, name):
        path = os.path.join(FIXTURES, f"{name}_demo.py")
        with open(path) as handle:
            source = handle.read()
        assert f'CONCURRENCY_MUTATION = "{name}"' in source

    def test_lint_concurrency_flags_fixture(self):
        from repro.analysis.lint import lint_concurrency

        report = lint_concurrency(os.path.join(FIXTURES, "dropped_lock_demo.py"))
        assert {d.code for d in report} == {"RVM601", "RVM602"}

    def test_lint_concurrency_clean_without_target(self):
        from repro.analysis.lint import lint_concurrency

        report = lint_concurrency()
        assert len(report) == 0, report.format()
