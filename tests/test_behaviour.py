"""The committed fingerprints of every robot's rollout, of `evaluate_batch`
and of three searches: `behaviour.py` says what the cases are and how an
entry is made.  numpy is loaded, so `run_rollout` takes its held-command
pass but in the scripted cases, which run on the scalar env; the rollout
goldens came from the scalar env, and the `evaluate_batch` ones from a
kernel that integrated every amplitude and joint, whose returns were
checked equal to `evaluate_constant_command`'s.  The search cases and the
170-command case came from the kernel of 800 lane-substeps a tile, before
its tiles were resized."""

import pytest

import behaviour


def test_rollout_outputs_equal_the_goldens():
    key = behaviour.platform_key()
    golden = next((e["cases"] for e in behaviour.load()["entries"]
                   if e["platform"] == key), None)
    if golden is None:
        pytest.fail(f"no behaviour goldens for {key}: run `python3 tests/behaviour.py` "
                    f"on this platform, at a commit whose behaviour is trusted, "
                    f"and commit the entry it adds")
    got = behaviour.cases()
    differ = sorted(name for name in set(golden) | set(got)
                    if golden.get(name) != got.get(name))
    assert not differ, f"{len(differ)} cases differ from the goldens: {differ}"
