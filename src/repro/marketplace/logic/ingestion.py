"""External-order ingestion: the idempotent multi-platform front door.

Marketplaces ingest orders from external sales channels (Wildberries,
Ozon, ...).  Channels deliver at-least-once, so the same external order
arrives more than once — concurrently on retry storms.  The dedup
registry is keyed on ``(platform, shop_id, ext_order_no)``; a key is
registered exactly once and maps to the internal order id created for
it.  Registry partitions are sharded per ``(platform, shop_id)`` so a
single grain/function owns each key and can serialise duplicates.

Whether registration and order creation are atomic is a *platform*
property: the transactional stacks do both in one ACID transaction,
the eventual stack registers first and creates the order with
at-least-once retries — the gap is what the C6 exactly-once audit
measures (duplicate internal orders, orphaned registrations).
"""

from __future__ import annotations

from repro.cow import updates_view


def shard_key(platform: str, shop_id: int) -> str:
    """Registry partition key: one shard per sales channel + shop."""
    return f"{platform}/{shop_id}"


def dedup_key(platform: str, shop_id: int, ext_order_no: str) -> str:
    """The exactly-once identity of one external order submission."""
    return f"{platform}/{shop_id}/{ext_order_no}"


def new_registry(shard: str) -> dict:
    """State of one ingestion-registry partition."""
    return {"shard": shard, "entries": {}, "next_seq": 1}


def lookup(state: dict, key: str) -> str | None:
    """The internal order id registered for ``key``, if any."""
    return state["entries"].get(key)


@updates_view
def register(state: dict, key: str) -> tuple[dict, str, bool]:
    """Claim ``key``; returns (state, internal order id, created?).

    A fresh key mints a deterministic internal order id from the shard
    sequence; a known key returns the originally assigned id untouched
    — the idempotent path.
    """
    entries = state["entries"]
    existing = entries.get(key)
    if existing is not None:
        return state, existing, False
    sequence = state["next_seq"]
    order_id = f"x{state['shard'].replace('/', '.')}-{sequence:05d}"
    entries[key] = order_id
    state["next_seq"] = sequence + 1
    return state, order_id, True


def registered_keys(state: dict) -> dict:
    """key -> internal order id mapping of one partition (a copy)."""
    return dict(state["entries"])
