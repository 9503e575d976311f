"""Golden digests: pinned bytes of a slice of the experiment matrix.

Every cell payload is pure simulated-time data, so the same cell must
serialise to the same bytes on every machine and after every refactor
that claims to change no behaviour.  This test pins the sha256 of
:attr:`CellResult.canonical_json` for a small slice — ``baseline`` on
all four stacks plus ``heavy-writer`` on statefun, seed 7 at a quarter
of the scenario length — so such a claim is checked, not asserted.

A failure here means simulated output changed.  If the change is
intended, update the digest in its own commit and give the reason in
CHANGES.md; never update a digest just to make this test pass.
"""

import hashlib

import pytest

from repro.core.matrix import MatrixCell, run_cell

SEED = 7
DURATION_SCALE = 0.25

#: (scenario, app) -> sha256 of the cell's canonical JSON.
GOLDEN = {
    ("baseline", "orleans-eventual"):
        "3020279760783e0329a9e878c520879131098662a0c64f208eb5e6dca7220d10",
    ("baseline", "orleans-transactions"):
        "59b42b7234993c34762ba96078792253850e8adc4baafabcf9b4e27843c8beeb",
    ("baseline", "statefun"):
        "6449202ce034d32b22ba4653a70b7d786256238286922be1211bb49195dc35a0",
    ("baseline", "customized-orleans"):
        "fdb2b79f19af07849818648bb0666490456b024ddf018f36af496cb0dacd562a",
    ("heavy-writer", "statefun"):
        "a6dbcef79284747e5ad825db82c257d853fd571438703e91bce0c56d147d0a84",
}


@pytest.mark.parametrize("scenario,app", sorted(GOLDEN),
                         ids=["/".join(key) for key in sorted(GOLDEN)])
def test_cell_payload_matches_golden_digest(scenario, app):
    result = run_cell(MatrixCell(scenario=scenario, app=app, seed=SEED,
                                 duration_scale=DURATION_SCALE))
    assert result.ok, result.error
    digest = hashlib.sha256(result.canonical_json.encode()).hexdigest()
    assert digest == GOLDEN[(scenario, app)], (
        f"{scenario}/{app} payload changed: sha256 {digest}")
