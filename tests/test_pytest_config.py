import re
from pathlib import Path

pytest_plugins = ["pytester"]


def test_a_failing_hypothesis_test_prints_its_example(pytester, pytestconfig):
    # The suite turns warnings into errors; a warning raised while hypothesis
    # reports a failure must not end the whole run in INTERNALERROR.
    pytester.makepyfile(test_falsified="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(pytestconfig.inipath), "-p", "no:cacheprovider", "test_falsified.py")
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)


def test_ci_workflow_runs_the_roadmap_tier1_command():
    root = Path(__file__).resolve().parents[1]
    roadmap = (root / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"        run: {command}\n" in workflow
    assert 'python-version: "3.11"' in workflow
    assert "run: pip install -e .[test]\n" in workflow
