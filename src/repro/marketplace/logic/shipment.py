"""Shipment service logic: packaging and delivery progression.

Upon successful payment the shipment service groups order items into
one package per seller.  The *Update Delivery* transaction "picks the
first 10 sellers with undelivered packages in chronological order and
sets their respective oldest order's packages as delivered".
"""

from __future__ import annotations

from repro.cow import peek, scan_items, scan_values, updates_view
from repro.marketplace.constants import PackageStatus


def new_shipments() -> dict:
    """State of a shipment manager partition.

    ``pending`` indexes the undelivered packages: seller ->
    ``{package_id: (shipped_at, order_id)}`` in shipping order, so the
    delivery queries never walk the packages already delivered.
    """
    return {"shipments": {}, "next_package": 1, "pending": {}}


@updates_view
def create_shipment(state: dict, order_id: str, customer_id: int,
                    items: list[dict], now: float) -> tuple[dict, dict]:
    """Create one package per seller for the order's items."""
    shipments = state["shipments"]
    if order_id in shipments:
        raise ValueError(f"shipment for {order_id!r} already exists")
    if not items:
        raise ValueError("cannot ship an order without items")
    packages = {}
    next_package = state["next_package"]
    by_seller: dict[int, list[dict]] = {}
    for item in items:
        by_seller.setdefault(item["seller_id"], []).append(dict(item))
    pending = state["pending"]
    for seller_id in sorted(by_seller):
        package_id = f"pkg-{next_package:08d}"
        next_package += 1
        packages[package_id] = {
            "package_id": package_id,
            "order_id": order_id,
            "seller_id": seller_id,
            "items": by_seller[seller_id],
            "status": PackageStatus.SHIPPED,
            "shipped_at": now,
            "delivered_at": None,
        }
        if seller_id in pending:
            pending[seller_id][package_id] = (now, order_id)
        else:
            pending[seller_id] = {package_id: (now, order_id)}
    shipment = {"order_id": order_id, "customer_id": customer_id,
                "packages": packages, "created_at": now}
    shipments[order_id] = shipment
    state["next_package"] = next_package
    return state, shipment


def undelivered_seller_times(state: dict) -> list[tuple[int, float]]:
    """(seller, earliest undelivered ship time) pairs for this partition."""
    first_seen = [
        (seller, min(when for when, _ in scan_values(packages)))
        for seller, packages in scan_items(peek(state, "pending"))]
    return sorted(first_seen, key=lambda item: (item[1], item[0]))


def undelivered_sellers(state: dict, limit: int = 10) -> list[int]:
    """First ``limit`` sellers with undelivered packages, chronological."""
    ranked = undelivered_seller_times(state)
    return [seller for seller, _ in ranked[:limit]]


def oldest_undelivered_package(state: dict,
                               seller_id: int) -> dict | None:
    """The seller's oldest package not yet delivered (or None).

    Of packages shipped at the same time, the first shipped wins.
    """
    packages = peek(peek(state, "pending"), seller_id)
    if not packages:
        return None
    package_id, (_, order_id) = min(scan_items(packages),
                                    key=lambda item: item[1][0])
    shipment = peek(peek(state, "shipments"), order_id)
    # The package may be frozen committed state: hand back a copy so
    # callers cannot reach engine-owned state through the result.
    return dict(peek(peek(shipment, "packages"), package_id))


@updates_view
def mark_delivered(state: dict, order_id: str, package_id: str,
                   now: float) -> tuple[dict, dict]:
    """Set one package delivered; returns (state, updated package)."""
    shipment = state["shipments"].get(order_id)
    if shipment is None:
        raise KeyError(f"no shipment for order {order_id!r}")
    packages = shipment["packages"]
    package = peek(packages, package_id)
    if package is None:
        raise KeyError(f"no package {package_id!r} in order {order_id!r}")
    if package["status"] == PackageStatus.DELIVERED:
        return state, package
    package = {**package, "status": PackageStatus.DELIVERED,
               "delivered_at": now}
    packages[package_id] = package
    seller_pending = state["pending"][package["seller_id"]]
    del seller_pending[package_id]
    if not seller_pending:
        del state["pending"][package["seller_id"]]
    return state, package


def package_count(state: dict, order_id: str) -> int:
    shipment = state["shipments"].get(order_id)
    return len(shipment["packages"]) if shipment else 0
