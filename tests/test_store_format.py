"""The on-disk format of both stores, pinned byte for byte.

Existing store roots must keep opening and recovering unchanged, so the
relative paths a put creates, the pointer-file bytes and the journal
records' fields are fixed here for one known certificate and one known
summary payload.
"""

import asyncio
import json
import os

import pytest

from repro.cert import CertificateChecker, ConformanceCertificate
from repro.cert.model import sha256_text
from repro.serve.service import CertificationService, ServeConfig
from repro.store import CertificateStore, StoreIO, SummaryStore
from repro.suite import by_name

CERT_HASH = "83235c66b0172acd57c8db77458118fc65c698de424c202f3012bcb219707b60"
CERT_INDEX = "431273ad810b015c74c6c1540b035332f941917b7aaf20d1a4ce3b9d441f201a"
CERT_LINEAGE = "f5afa66cae34b59d9e1a72deaff48c46f578dbf96087bcb63ccd9e80ce844f62"
SUMMARY_HASH = "22f4963113ea5adfc405ac365c187c69c67dcb13a795e1bf22fad51cc3e6fe12"
SUMMARY_KEY = "5" * 64

#: the object an earlier release stored for fig3 on fds: indented JSON,
#: addressed by the sha256 of those bytes
LEGACY_CERT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    "legacy_fig3_fds.cert.json",
)
LEGACY_HASH = "000fa148aa72704787149a96553fcea4e110653af3c008164bce14e8a57bdde8"
LEGACY_INDEX = "2d4503f54d4a6cedc5bf31637ee90b1fc73b1aac3622a0e300f0953f9021f64d"
LEGACY_LINEAGE = "b19dfd9188173b1d71044ab69e2e773311ec445b8d0921bb0eb696dcfa2f7d04"

BEGIN_FIELDS = {"bytes", "index", "lineage", "object", "op", "ts", "txn"}
COMMIT_FIELDS = {"op", "txn"}


def _certificate_put(root):
    cert = ConformanceCertificate(
        payload={
            "format": "format-pin",
            "spec_hash": "1" * 64,
            "source_hash": "2" * 64,
            "fingerprint": "3" * 64,
            "abstraction_hash": "4" * 64,
            "verdict": {"certified": True},
        }
    )
    store = CertificateStore(root, io=StoreIO(fsync=False))
    assert store.put(cert) == CERT_HASH
    return store, cert.text()


def _summary_put(root):
    payload = {"exit": "3", "masks": ["1", "3"], "space": "pin"}
    store = SummaryStore(root, io=StoreIO(fsync=False))
    assert store.put(SUMMARY_KEY, payload) == SUMMARY_HASH
    return store, '{"exit":"3","masks":["1","3"],"space":"pin"}'


CASES = {
    "certificate": (
        _certificate_put,
        f"objects/83/{CERT_HASH}.cert.json",
        {
            f"index/43/{CERT_INDEX}": CERT_HASH,
            f"lineage/f5/{CERT_LINEAGE}": CERT_HASH,
        },
        {"index": CERT_INDEX, "lineage": CERT_LINEAGE, "object": CERT_HASH},
    ),
    "summary": (
        _summary_put,
        f"objects/22/{SUMMARY_HASH}.summary.json",
        {f"index/55/{SUMMARY_KEY}": SUMMARY_HASH},
        {"index": SUMMARY_KEY, "lineage": None, "object": SUMMARY_HASH},
    ),
}


def _files(root):
    return {
        os.path.relpath(os.path.join(directory, name), root).replace(
            os.sep, "/"
        )
        for directory, _subdirs, names in os.walk(root)
        for name in names
    }


def _read(root, relative):
    with open(os.path.join(root, relative), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_one_put_writes_the_pinned_layout(kind, tmp_path):
    put, object_file, pointers, begin_values = CASES[kind]
    root = str(tmp_path)
    store, text = put(root)

    journal = "wal/journal.jsonl"
    assert _files(root) == {".lock", object_file, journal, *pointers}
    assert _read(root, object_file) == text
    assert sha256_text(text) == begin_values["object"]
    for pointer, target in pointers.items():
        assert _read(root, pointer) == target + "\n"

    begin, commit = [json.loads(line) for line in _read(root, journal).splitlines()]
    assert set(begin) == BEGIN_FIELDS and set(commit) == COMMIT_FIELDS
    assert begin["op"] == "begin" and commit["op"] == "commit"
    assert begin["txn"] == commit["txn"] == 1
    assert begin["bytes"] == len(text.encode("utf-8"))
    assert {field: begin[field] for field in begin_values} == begin_values

    # recovery over the pinned layout finds nothing to repair and only
    # empties the journal
    assert store.recover(verify_objects=True).clean
    assert _files(root) == {".lock", object_file, journal, *pointers}
    assert _read(root, journal) == ""


def test_a_root_holding_an_indented_certificate_keeps_serving_it(tmp_path):
    """Certificates are now stored compact, but an object written in the
    earlier indented form keeps its address: the root opens and verifies
    clean, the checker accepts the object, and the service answers the
    same request from it without recertifying."""
    with open(LEGACY_CERT, "rb") as handle:
        legacy = handle.read()
    assert b'\n  "annotation": {' in legacy  # really the indented form
    files = {
        f"objects/00/{LEGACY_HASH}.cert.json": legacy,
        f"index/2d/{LEGACY_INDEX}": LEGACY_HASH.encode() + b"\n",
        f"lineage/b1/{LEGACY_LINEAGE}": LEGACY_HASH.encode() + b"\n",
    }
    root = str(tmp_path)
    for relative, data in files.items():
        os.makedirs(os.path.dirname(os.path.join(root, relative)), exist_ok=True)
        with open(os.path.join(root, relative), "wb") as handle:
            handle.write(data)

    store = CertificateStore(root, io=StoreIO(fsync=False))
    assert store.recover(verify_objects=True).clean
    stored = store.get(LEGACY_INDEX)
    assert stored is not None and store.stats.corrupt == 0
    assert CertificateChecker().check(stored).ok

    async def serve():
        service = CertificationService(
            ServeConfig(specs=("cmp",), workers=1, store_path=root)
        )
        await service.start()
        answer = await service.certify(
            {"source": by_name("fig3").source, "engine": "fds", "spec": "cmp"}
        )
        checked = await service.check({"hash": LEGACY_HASH})
        await service.stop()
        return answer, checked

    (status, payload), (check_status, checked) = asyncio.run(serve())
    assert status == 200
    assert payload["served"]["path"] == "check"
    assert payload["served"]["key"] == LEGACY_INDEX
    assert payload["served"]["hash"] == LEGACY_HASH
    assert payload["verdict"]["status"] == "accepted"
    assert payload["certificate"]["hash"] == LEGACY_HASH
    assert payload["certificate"]["bytes"] == len(legacy)
    # a check by hash describes the stored object by its own address
    assert check_status == 200 and checked["verdict"]["status"] == "accepted"
    assert checked["certificate"]["hash"] == LEGACY_HASH
    assert checked["certificate"]["bytes"] == len(legacy)
    for relative, data in files.items():
        with open(os.path.join(root, relative), "rb") as handle:
            assert handle.read() == data
