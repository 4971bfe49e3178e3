from hypothesis import given
from hypothesis import strategies as st

from vmguard.ir import parse_module
from vmguard.network import (GuardEdge, build_checker_network, in_degrees,
                             is_eligible_checker, verify_acyclic)
from vmguard.rng import SplitMix64

TINY = """\
func @t(i64 %x) -> i64 {
entry:
  ret i64 %x
}
"""

PAIR = """\
func @p(i64 %x) -> i64 {
entry:
  %one = const i64 1
  ret i64 %one
}
"""

MEDIUM = """\
func @m(i64 %x) -> i64 {
entry:
  %one = const i64 1
  %r = add i64 %x, %one
  ret i64 %r
}
"""


def test_single_record_functions_cannot_check_anyone():
    assert not is_eligible_checker(parse_module(TINY).functions[0])
    assert is_eligible_checker(parse_module(PAIR).functions[0])
    assert is_eligible_checker(parse_module(MEDIUM).functions[0])


def test_lone_function_yields_no_edges():
    assert build_checker_network(["f"], {"f"}, 3, SplitMix64(0)) == []


def test_two_functions_yield_exactly_one_edge():
    for seed in range(10):
        edges = build_checker_network(["a", "b"], {"a", "b"}, 2,
                                      SplitMix64(seed))
        assert edges == [GuardEdge("b", "a")]


def test_three_functions_saturate_to_descending_degrees():
    # table order fixes who can still be checked acyclically: the first
    # function collects the full quota, each later one loses a slot, the
    # last is always an unchecked root
    for seed in range(10):
        names = ["f", "g", "h"]
        edges = build_checker_network(names, set(names), 2, SplitMix64(seed))
        deg = in_degrees(names, edges)
        assert deg == {"f": 2, "g": 1, "h": 0}
        assert verify_acyclic(edges)


def test_quota_is_capped_by_available_acyclic_checkers():
    names = ["a", "b", "c", "d"]
    edges = build_checker_network(names, set(names), 5, SplitMix64(4))
    deg = in_degrees(names, edges)
    assert deg == {"a": 3, "b": 2, "c": 1, "d": 0}


def test_ineligible_functions_are_checked_but_never_check():
    names = ["big", "small", "other"]
    edges = build_checker_network(names, {"big", "other"}, 2, SplitMix64(9))
    checkers = {e.checker for e in edges}
    assert "small" not in checkers
    assert in_degrees(names, edges)["small"] >= 1


def test_zero_quota_yields_no_edges():
    assert build_checker_network(["a", "b"], {"a", "b"}, 0,
                                 SplitMix64(1)) == []


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=1023))
def test_random_networks_are_always_acyclic_and_within_quota(
        seed, n, quota, eligible_bits):
    names = [f"f{i}" for i in range(n)]
    eligible = {names[i] for i in range(n) if eligible_bits >> i & 1}
    edges = build_checker_network(names, eligible, quota, SplitMix64(seed))
    assert verify_acyclic(edges)
    deg = in_degrees(names, edges)
    assert all(d <= quota for d in deg.values())
    for e in edges:
        assert e.checker in eligible
        assert e.checker != e.checkee
    assert len(set((e.checker, e.checkee) for e in edges)) == len(edges)


def test_cycle_checker_accepts_chains_and_diamonds():
    assert verify_acyclic([])
    assert verify_acyclic([GuardEdge("a", "b"), GuardEdge("b", "c")])
    assert verify_acyclic([GuardEdge("a", "b"), GuardEdge("a", "c"),
                           GuardEdge("b", "d"), GuardEdge("c", "d")])


def test_cycle_checker_rejects_cycles():
    assert not verify_acyclic([GuardEdge("a", "a")])
    assert not verify_acyclic([GuardEdge("a", "b"), GuardEdge("b", "a")])
    assert not verify_acyclic([GuardEdge("a", "b"), GuardEdge("b", "c"),
                               GuardEdge("c", "a")])
    # cycle off to the side of an acyclic chain still counts
    assert not verify_acyclic([GuardEdge("r", "s"), GuardEdge("x", "y"),
                               GuardEdge("y", "x")])
