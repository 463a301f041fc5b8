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
