"""Pinned outputs, by sha256 of their ``serialize.dump`` text: the
``check_transfer_input`` reports and the arity-5 ``table_to_json`` exports of
the built-in models, ``bracket_model(z)``, ``cy3_model()`` and
``ce_model(n)``, the ``algebra_to_json`` exports of the model builders and
of ``search_nonformal``, the witnesses of ``search_nonformal`` on seeds
0-63 with their exports, and the certificates of the reference footprints.
The ``transfer --out`` files of the benchmark's seed-0 transfer documents
are compared with the digests the benchmark records for them, in
``perfbench/digests.json``.

A refactor keeps these bytes.  A change that moves one on purpose names the
model and the moved entries in CHANGES.md and records the new digest here.
"""

import hashlib
import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from bv_oracle import bracket_model, ce_model, cy3_model
from certify_oracle import builtin_footprints
from bvhy import models
from bvhy.certify import certify_formality
from bvhy.cli import main
from bvhy.engine import build_operation_table
from bvhy.hodge import check_transfer_input
from bvhy.serialize import algebra_to_json, dump, table_to_json

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
    # the first pins with nonzero (4,0) and (5,0) tables, which a change
    # to the sign rule of the transferred operations moves
    "ce(4)":
        "2d4808176ba03e3fc295ae2656230eb401fbbae74b919ae426e7dedfb234d4da",
    "ce(5)":
        "5b2162186ceb310a7b7c5aee94e356e250a3fdd9c08bcad92d211f4f2fc2cddb",
}
# the algebra_to_json export of each model, by the call that builds it
EXPORTS = {
    (models.build_trivial_model, 1):
        "99a1f580247e34401a32ea09a57b94ef40b9d602bc9c9ccb8d9472fb4371dbfb",
    (models.build_trivial_model, 3):
        "21e744dbc06c12c1d11dae149083bf5bfcf5fd93ef822bc27f557f6cdfe49114",
    (models.build_trivial_model, 4):
        "13069ad0ac54780daa0972de4c277caf87cc035ba42551c78037995b13ca637c",
    (models.build_torus_model, 1, 0):
        "a47699c8d77ecf833baaad85cce43919f617ae7e6167d78d2d41532a450baa7d",
    (models.build_torus_model, 1, 1):
        "b7119574e2eb1f378c6e978fba13330b23ae14796d82d60249c53e73d64cafde",
    (models.build_torus_model, 2, 0):
        "ae1bfe674c3b50fc60e9bcaa0acddbb03ad1532debad4f387d7d1bba23504af7",
    (models.build_torus_model, 2, 1):
        "52b927d26a8d74113c1408c84af3e87f386d2b58efec9b9892add643d40e1690",
    (models.build_torus_model, 3, 0):
        "3ba8ed90024b598760b9e609f9ec9318052a1b821182be909f549bd05bd51ea1",
    (models.build_skew_gram_model,):
        "b5fbb6d3c3bb8df226f7b058d26413771c28b8705c33b40f8417bbfdb545dacb",
    (models.search_nonformal, 0):
        "31774d9565344d40a8111205974159d0f7b9130114d53a7fb56166ca90b1674b",
    (models.search_nonformal, 1):
        "cf07585e4a37a4874c43891c4271192427b74a49b8444c46da03b7709642be37",
}
# [seed, witness, export] for each search seed 0-63, or [seed, message]
# where the search is exhausted
SEARCH_SEEDS = \
    "2cb089fcc9aa2acadf4e3f140d1f92c05f2c4e8085865973a6f37c56f7517dc8"
# the product keys of torus(2,1) in table order, as the builder writes them
TORUS_21_KEYS = \
    "22ed28166a97da498b95a2163a166d4d17324a2eed14555f25f1ae8de86243bc"
# the certificate document ``bvhy certify`` writes, for each reference
# footprint with the top-degree assumption granted and then withheld
CERTIFICATES = \
    "ca541e65ddf1585e3a7e76961ad4507ffc7e0011612e7964913493519cd5461c"


def _model(name):
    """The algebra and Gram form called ``name`` in ``TABLES``."""
    if name == "cy3":
        return cy3_model(), None
    if name.startswith("ce("):
        return ce_model(int(name[3:-1])), None
    if name.startswith("bracket("):
        return bracket_model(tuple(map(int, name[8:-1].split(",")))), None
    m = next(m for m in models.builtin_models() if m.name == name)
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


def test_ce_exports_have_nonzero_higher_operations():
    nonzero = {}
    for n in (4, 5):
        a = ce_model(n)
        ops = build_operation_table(a, check_transfer_input(a)[0], 5).ops
        nonzero[n] = [kl for kl in ((4, 0), (5, 0)) if ops[kl]]
    assert nonzero == {4: [(4, 0)], 5: [(4, 0), (5, 0)]}


@pytest.mark.parametrize("call", list(EXPORTS), ids=[
    f"{build.__name__}({','.join(map(str, args))})"
    for build, *args in EXPORTS])
def test_model_exports_are_pinned(call):
    build, *args = call
    m = build(*args)
    assert _sha256(algebra_to_json(m.algebra, m.inner_product)) == \
        EXPORTS[call]


def test_search_witnesses_are_pinned():
    docs = []
    for seed in range(64):
        try:
            m = models.search_nonformal(seed)
        except models.SearchExhausted as exc:
            docs.append([seed, str(exc)])
        else:
            docs.append([seed, m.witness, dump(algebra_to_json(m.algebra))])
    assert _sha256(docs) == SEARCH_SEEDS


def test_torus_product_keys_keep_their_order():
    keys = list(models.build_torus_model(2, 1).algebra.tables.product.cols)
    assert len(keys) == 1377
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == TORUS_21_KEYS


def test_certificates_are_pinned():
    docs = [asdict(certify_formality(nf.footprint, assume_top_bottom=flag))
            for nf in builtin_footprints() for flag in (True, False)]
    assert len(docs) == 10
    assert _sha256(docs) == CERTIFICATES


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def benchmark_gen():
    """``perfbench/gen.py``, the benchmark's document generator."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen


@pytest.mark.parametrize("workload", ["transfer-collapse", "transfer-massey"])
def test_benchmark_transfer_exports_match_their_digests(
        workload, benchmark_gen, tmp_path, capsys):
    # the digests are recorded for seed 0, the benchmark's default seed
    digests = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    docs = benchmark_gen.generate(workload, 0)
    assert sorted(doc.name for doc in docs) == sorted(digests)
    path, out = tmp_path / "doc.json", tmp_path / "table.json"
    got = {}
    for doc in docs:
        path.write_text(dump(doc.algebra))
        assert main(["transfer", str(path), "--max-arity",
                     str(benchmark_gen.TRANSFER_ARITY), "--out", str(out)]) == 0
        got[doc.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == digests
