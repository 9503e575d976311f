"""Pure business logic of the eight microservices.

Every function here is a state transition: it receives the current
state (and inputs), returns the new state (and outputs), and never
touches the simulation, storage or network.  State is a plain dict or a
:class:`~repro.cow.CowState` view.  Transitions that update a growing
keyed collection (orders, dashboard entries, shipments, the ingestion
registry) mutate the view in place under
:func:`~repro.cow.updates_view`, so their cost follows the keys they
touch, not the size of the collection.  The platform
implementations in :mod:`repro.apps` wire these transitions onto grains,
transactional grains and stateful functions; data management behaviour
(atomicity, replication, ordering) differs per platform, business rules
do not.
"""

from repro.marketplace.logic import (  # noqa: F401
    cart,
    customer,
    ingestion,
    lifecycle,
    order,
    payment,
    product,
    seller,
    shipment,
    stock,
)

__all__ = ["cart", "customer", "ingestion", "lifecycle", "order", "payment",
           "product", "seller", "shipment", "stock"]
