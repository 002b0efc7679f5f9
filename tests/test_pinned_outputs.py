"""Pinned outputs: the ``check_transfer_input`` reports and the arity-5
``table_to_json`` exports of the built-in models, ``bracket_model(z)`` and
``cy3_model()``, by sha256 of their ``serialize.dump`` text.

A refactor keeps these bytes.  A change that moves one on purpose names the
model and the moved entries in CHANGES.md and records the new digest here.
"""

import hashlib

import pytest

from bv_oracle import bracket_model, cy3_model
from bvhy.engine import build_operation_table
from bvhy.hodge import check_transfer_input
from bvhy.models import builtin_models
from bvhy.serialize import dump, table_to_json

# every model passes every check, so all the reports are one document
REPORTS = "433893fe78c7d0669744329c47e8f7d3f1bd6b5e1cd50606ae5f061e1897c408"
TABLES = {
    "trivial(1)":
        "1caec6731e43c98c79b3dc349877674c0f1986115412bcbd1c75fa9e8bb96d2b",
    "trivial(3)":
        "f3044d050959e32c4ab42b5c92ee95fcba87dd48730e716955443fd9b87bc192",
    "torus(1,0)":
        "6c69c8cc70bce7377a069c51964e7d2b68aa514c41cd1554ca0325ad6b2bc20d",
    "torus(1,1)":
        "6c69c8cc70bce7377a069c51964e7d2b68aa514c41cd1554ca0325ad6b2bc20d",
    "torus(2,1)":
        "b5bdfb921edb6bb0eefe949902f43c019072834f61992e50c1edde22e938945a",
    "skew-gram":
        "f0ec060b5c132abba3d5933f04b84c486f05e20c9b45a2ea2012fc5b4e1a53b9",
    "bracket(0,1)":
        "08c37ef30f75c5660f42cdf9c2c3406213736661e8939b5e02f25b832ba81343",
    "bracket(1,0)":
        "36e39f11172c5349aac2f487d9f0923201038ea3cde1f9bc7cb26d4984d454ed",
    "bracket(1,1)":
        "64e796f8d22a7c3d1b5939a27bb37a065f236462b050b1e7382a94b0e16ff84d",
    "bracket(2,0)":
        "3c6a91e9a421396a035657b7cb23b681254fbea5f0bfbb18112fc75bcf178313",
    "bracket(0,2)":
        "4917229baf3bc9281467906a9ad8514f1258042bc8f4f16fe245bb5fe343e32a",
    "cy3":
        "f18be02663362e7eab425f5b0d4f1dc91b2e6eb1759cf7e54d2320e76a2f0367",
}


def _model(name):
    """The algebra and Gram form called ``name`` in ``TABLES``."""
    if name == "cy3":
        return cy3_model(), None
    if name.startswith("bracket("):
        return bracket_model(tuple(map(int, name[8:-1].split(",")))), None
    m = next(m for m in builtin_models() if m.name == name)
    return m.algebra, m.inner_product


def _sha256(doc) -> str:
    return hashlib.sha256(dump(doc).encode()).hexdigest()


@pytest.mark.parametrize("name", list(TABLES))
def test_transfer_reports_and_tables_are_pinned(name):
    a, ip = _model(name)
    td, reports = check_transfer_input(a, ip)
    assert _sha256([r.to_dict() for r in reports]) == REPORTS
    table = build_operation_table(a, td, 5)
    assert _sha256(table_to_json(table)) == TABLES[name]
