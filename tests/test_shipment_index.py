"""Property tests for the undelivered-package index of a shipment
partition.

``undelivered_seller_times`` and ``oldest_undelivered_package`` answer
from the partition's ``pending`` index.  Random sequences of
``create_shipment`` / ``mark_delivered`` — on plain dicts (eventual and
dataflow stacks) and on copy-on-write views that are committed now and
then (transactional stacks), with ship times drawn from a tiny set so
ties are common — must give the same answers as a scan over every
package ever shipped, which is how the queries were answered before
the index existed.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cow import CowState, materialize
from repro.marketplace.constants import PackageStatus
from repro.marketplace.logic import shipment

SELLERS = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# reference: the full-partition scan
# ---------------------------------------------------------------------------

def iter_packages(state):
    for entry in state["shipments"].values():
        yield from entry["packages"].values()


def scan_undelivered_seller_times(state):
    first_seen = {}
    for package in iter_packages(state):
        if package["status"] != PackageStatus.DELIVERED:
            seller = package["seller_id"]
            when = package["shipped_at"]
            if seller not in first_seen or when < first_seen[seller]:
                first_seen[seller] = when
    return sorted(first_seen.items(), key=lambda item: (item[1], item[0]))


def scan_oldest_undelivered_package(state, seller_id):
    best = None
    for package in iter_packages(state):
        if (package["seller_id"] == seller_id
                and package["status"] != PackageStatus.DELIVERED):
            if best is None or package["shipped_at"] < best["shipped_at"]:
                best = package
    return dict(best) if best is not None else None


# ---------------------------------------------------------------------------
# random operation sequences
# ---------------------------------------------------------------------------

ship = st.tuples(st.just("ship"),
                 st.lists(st.sampled_from(SELLERS), min_size=1,
                          max_size=3),
                 st.sampled_from([1.0, 2.0, 3.0]))
deliver = st.tuples(st.just("deliver"), st.integers(0, 40),
                    st.sampled_from([4.0, 5.0]))
commit = st.tuples(st.just("commit"), st.none(), st.none())
programs = st.lists(st.one_of(ship, deliver, commit), max_size=30)


def item(seller_id):
    return {"seller_id": seller_id, "product_id": 1, "quantity": 1,
            "unit_price_cents": 100}


def check_queries(state):
    reference = materialize(state)
    assert (shipment.undelivered_seller_times(state)
            == scan_undelivered_seller_times(reference))
    for seller_id in SELLERS:
        assert (shipment.oldest_undelivered_package(state, seller_id)
                == scan_oldest_undelivered_package(reference, seller_id))


def run_program(program, as_view):
    """Apply ``program``, checking the queries after every step.

    With ``as_view`` the updates go to a :class:`CowState` that a
    ``commit`` step materialises and re-wraps, like a transactional
    grain's read/write cycle; otherwise every update returns a fresh
    plain dict and must leave its input untouched.
    """
    state = shipment.new_shipments()
    if as_view:
        state = CowState(state)
    packages = []
    for number, (op, arg, now) in enumerate(program):
        previous = state
        snapshot = None if as_view else copy.deepcopy(state)
        if op == "ship":
            order_id = f"o{number}"
            state, created = shipment.create_shipment(
                state, order_id, 9, [item(seller) for seller in arg], now)
            packages.extend((order_id, package_id)
                            for package_id in created["packages"])
        elif op == "deliver" and packages:
            order_id, package_id = packages[arg % len(packages)]
            state, package = shipment.mark_delivered(
                state, order_id, package_id, now)
            assert package["status"] == PackageStatus.DELIVERED
        elif op == "commit" and as_view:
            state = CowState(materialize(state))
        if snapshot is not None:
            assert type(state) is dict
            assert previous == snapshot, "a plain input was mutated"
        check_queries(state)
    return state


@settings(max_examples=150, deadline=None)
@given(programs)
def test_index_matches_full_scan_on_plain_state(program):
    run_program(program, as_view=False)


@settings(max_examples=150, deadline=None)
@given(programs)
def test_index_matches_full_scan_on_cow_views(program):
    run_program(program, as_view=True)


@settings(max_examples=100, deadline=None)
@given(programs)
def test_index_holds_exactly_the_undelivered_packages(program):
    state = materialize(run_program(program, as_view=True))
    expected = {}
    for package in iter_packages(state):
        if package["status"] != PackageStatus.DELIVERED:
            expected.setdefault(package["seller_id"], {})[
                package["package_id"]] = (package["shipped_at"],
                                          package["order_id"])
    assert state["pending"] == expected
