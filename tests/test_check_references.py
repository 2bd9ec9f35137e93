"""``tools/check_references.differences`` on synthetic reference dicts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import check_references  # noqa: E402

REFERENCE = {"a/0/eval_cost": "1f", "a/0/validate": "2e",
             "bad/eval_map_list": "raise:AttributeError", "bad/perturb_edge_arity": "exit:2"}


def test_equal_outputs_have_no_differences():
    assert check_references.differences(REFERENCE, dict(REFERENCE)) == []


def test_a_bad_job_may_move_from_a_raise_to_exit_2_only():
    assert check_references.differences(REFERENCE, dict(REFERENCE, **{
        "bad/eval_map_list": "exit:2"})) == []
    for now in ("exit:0", "exit:4", "raise:TypeError"):
        assert check_references.differences(REFERENCE, dict(REFERENCE, **{
            "bad/eval_map_list": now})) == [
            f"bad/eval_map_list: reference 'raise:AttributeError', now {now!r}"]
    # an exit-2 reference must stay exit 2, and a good job may not read exit 2
    assert check_references.differences(REFERENCE, dict(REFERENCE, **{
        "bad/perturb_edge_arity": "raise:ValueError", "a/0/validate": "exit:2"})) == [
        "a/0/validate: reference '2e', now 'exit:2'",
        "bad/perturb_edge_arity: reference 'exit:2', now 'raise:ValueError'",
    ]


def test_changed_missing_and_extra_keys_are_each_named_in_key_order():
    got = dict(REFERENCE, **{"a/0/eval_cost": "3d", "a/1/eval_cost": "4c"})
    del got["a/0/validate"]
    assert check_references.differences(REFERENCE, got) == [
        "a/0/eval_cost: reference '1f', now '3d'",
        "a/0/validate: reference '2e', now None",
        "a/1/eval_cost: reference None, now '4c'",
    ]
